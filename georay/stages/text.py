"""Text-analysis stages for large-scale training-data pipelines:
token counting, language ID, quality scoring, document fingerprinting.

All stages are vectorized ``map_batches`` bodies (pyarrow.compute regex
kernels / numpy); the language-ID stage is a callable CLASS so pattern
compilation happens once per actor (stateful-stage shape), though it is
cheap enough to run as fused stateless tasks too.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


TOKEN_RE = r"\S+"


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count — semantics identical to DuckDB
    ``len(regexp_extract_all(text, '\\S+'))`` (empty → 0)."""
    n = pc.count_substring_regex(batch[text_col], TOKEN_RE)
    return batch.append_column("n_tokens", n.cast(pa.int64()))


def add_token_count(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: token_count_batch(b, text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


# ------------------------------------------------------------ language id

_LANG_MARKERS = {
    "en": r"\b(the|and|of|to|a|in|is|that|it|for)\b",
    "de": r"\b(der|die|das|und|ist|nicht|ein|eine|mit|von)\b",
    "fr": r"\b(le|la|les|et|est|une|un|des|dans|pour)\b",
    "es": r"\b(el|los|las|y|es|una|un|de|en|por)\b",
}
_CJK = r"[一-鿿]"


class LanguageId:
    """n-gram/marker-word language heuristic (en/de/fr/es/zh).

    Scores = marker-hit counts per language (CJK codepoint count for zh),
    normalized by token count; argmax wins, 'und' (undetermined) when all
    scores are zero. Compilation happens once per actor instance.
    """

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.langs = list(_LANG_MARKERS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = pc.utf8_lower(batch[self.text_col])
        scores = np.zeros((len(batch), len(self.langs) + 1), dtype=np.float64)
        for i, lang in enumerate(self.langs):
            scores[:, i] = (
                pc.count_substring_regex(text, _LANG_MARKERS[lang])
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
        # zh: fraction of CJK codepoints (marker words don't apply)
        cjk = pc.count_substring_regex(text, _CJK).to_numpy(zero_copy_only=False)
        scores[:, -1] = cjk * 2.0  # CJK chars are strong evidence
        best = np.argmax(scores, axis=1)
        none = scores.max(axis=1) == 0
        labels = np.asarray(self.langs + ["zh"], dtype=object)[best]
        labels[none] = "und"
        return batch.append_column("lang_pred", pa.array(labels.tolist(), pa.string()))


def add_language_id(ds: ray.data.Dataset, text_col: str = "text", concurrency=None):
    if concurrency:
        return ds.map_batches(
            LanguageId,
            fn_constructor_args=(text_col,),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=4096,
            concurrency=concurrency,
        )
    stage = LanguageId(text_col)
    return ds.map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


# ---------------------------------------------------------- quality score

def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Length / punctuation / digit / stopword-ish ratios + a composite
    quality score in [0,1]. All pyarrow/numpy vectorized."""
    text = batch[text_col]
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
    n_tokens = (
        pc.count_substring_regex(text, TOKEN_RE)
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )
    n_digits = (
        pc.count_substring_regex(text, r"[0-9]")
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )
    n_punct = (
        pc.count_substring_regex(text, r"[!-/:-@\[-`{-~]")
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )
    n_stop = (
        pc.count_substring_regex(
            pc.utf8_lower(text), _LANG_MARKERS["en"]
        )
        .to_numpy(zero_copy_only=False)
        .astype(np.float64)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_tok_len = np.where(n_tokens > 0, (n_chars - (n_tokens - 1)) / np.maximum(n_tokens, 1), 0.0)
        digit_ratio = np.where(n_chars > 0, n_digits / n_chars, 0.0)
        punct_ratio = np.where(n_chars > 0, n_punct / n_chars, 0.0)
        stop_ratio = np.where(n_tokens > 0, n_stop / np.maximum(n_tokens, 1), 0.0)
    score = np.clip(
        0.35 * np.clip(n_tokens / 64.0, 0, 1)
        + 0.25 * np.clip(1.0 - digit_ratio * 5, 0, 1)
        + 0.2 * np.clip(1.0 - punct_ratio * 5, 0, 1)
        + 0.2 * np.clip(stop_ratio * 4, 0, 1),
        0.0,
        1.0,
    )
    return (
        batch.append_column("n_tokens", pa.array(n_tokens.astype(np.int64)))
        .append_column("n_digits", pa.array(n_digits.astype(np.int64)))
        # half-away-from-zero at 6 dp (scores are dyadic — n_tokens/64
        # etc. — so exact .5e-6 ties DO occur; np.round's half-even would
        # diverge from SQL round())
        .append_column("quality", pa.array(np.floor(score * 1e6 + 0.5) / 1e6))
    )


def add_quality(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: quality_batch(b, text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


# ---------------------------------------------------------- fingerprints

_WS = re.compile(r"\s+")


def normalize_text(s: str) -> str:
    """The canonical form for exact-dup detection: lowercase, collapsed
    whitespace, stripped — mirrors the SQL expression
    ``md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))``."""
    return _WS.sub(" ", s.lower()).strip()


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    fps = [
        hashlib.md5(normalize_text(t or "").encode("utf-8")).hexdigest() for t in texts
    ]
    return batch.append_column("fingerprint", pa.array(fps, pa.string()))


def add_fingerprint(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: fingerprint_batch(b, text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def token_histogram(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """Distributed wordcount: exact per-token corpus counts as
    ``(token, n)`` — the vocabulary table a tokenizer-training or
    quality-filter stage consumes.

    Tokenization is pure Arrow C (lower → collapse ``\\s+`` → trim →
    ``split_pattern`` on single spaces, matching DuckDB
    ``string_split(trim(regexp_replace(lower(text),'\\s+',' ','g')),' ')``
    semantics — an empty doc yields one empty token, both sides).
    Per-batch partial counts come from ``pc.value_counts`` (hash agg, no
    Python per token) and merge through an Arrow-groupby combine tree —
    no sort-shuffle barrier; requires the VOCABULARY (not the corpus) to
    fit one worker, true even at web scale (10⁷ tokens × ~30 B)."""

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        norm = pc.utf8_trim(
            pc.replace_substring_regex(pc.utf8_lower(txt), r"\s+", " "),
            characters=" ",
        )
        flat = pc.list_flatten(pc.split_pattern(norm, " "))
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "token": vc.field("values"),
                "partial_n": vc.field("counts").cast(pa.int64()),
            }
        )

    def combine(batch: pa.Table, out_name: str) -> pa.Table:
        g = batch.group_by("token").aggregate([("partial_n", "sum")])
        return pa.table({"token": g["token"], out_name: g["partial_n_sum"]})

    from georay.ops import COMBINE_TARGET_ROWS

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    comb = parts.map_batches(
        lambda b: combine(b, "partial_n"),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=COMBINE_TARGET_ROWS,
        num_cpus=0.5,
    )
    return comb.map_batches(
        lambda b: combine(b, "n"),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1 << 40,
        num_cpus=0.9,
    )


def _tokenize_flat(txt: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(flat token array, per-doc token counts) with the engine's
    canonical normalization (lower → collapse whitespace → trim → split
    on single spaces; empty doc yields one empty token)."""
    norm = pc.utf8_trim(
        pc.replace_substring_regex(pc.utf8_lower(txt), r"\s+", " "),
        characters=" ",
    )
    lists = pc.split_pattern(norm, " ")
    counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False).astype(np.int64)
    return pc.list_flatten(lists), counts


def token_label_stats(
    ds: ray.data.Dataset,
    label_fn,
    text_col: str = "text",
    min_df: int = 2,
    max_docs_exact: int = 200_000,
) -> ray.data.Dataset:
    """χ² keyword selection sufficient stats: for every token with
    document frequency ≥ ``min_df``, ``(token, df_pos, df_neg,
    chi2_num)`` where df_pos/df_neg are the DISTINCT-document counts
    among label-1 / label-0 docs and ``chi2_num = (n11·n00 − n10·n01)²``
    is the integer χ² numerator (divide by the four marginals and
    multiply by n to get the statistic — kept integral so the oracle is
    exact). ``label_fn(batch) → 0/1 int array`` assigns each doc its
    class (e.g. lang == 'en').

    One streaming pass: per batch, tokens dictionary-encoded and
    deduped per doc with one lexsort boundary (presence, not counts),
    per-class partial dfs via two bincounts; vocabulary-sized combine
    tree (same bound as ``token_histogram``); class totals (P, N) ride
    a 2-int tree_reduce and broadcast into the finish map. Raises above
    ``max_docs_exact`` docs — beyond that (n11·n00)² would overflow
    int64; shard by label-stratified corpus splits and merge, or drop
    to the float statistic."""
    from georay.ops import tree_reduce, tree_sum

    def partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        y = np.asarray(label_fn(batch), dtype=np.int64)
        # NULL text contributes no tokens (SQL: unnest of a NULL split
        # yields no rows) but the doc still counts in the class totals
        valid = pc.is_valid(txt)
        if not pc.all(valid).as_py():
            m = valid.to_numpy(zero_copy_only=False)
            txt = txt.filter(valid)
            y = y[m]
        flat, counts = _tokenize_flat(txt)
        doc = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        enc = flat.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = np.asarray(enc.indices)
        vocab = enc.dictionary
        order = np.lexsort((codes, doc))
        dc, cc = doc[order], codes[order]
        keep = np.ones(dc.shape[0], dtype=bool)
        keep[1:] = (dc[1:] != dc[:-1]) | (cc[1:] != cc[:-1])
        cc_k, dc_k = cc[keep], dc[keep]
        yd = y[dc_k]
        nv = len(vocab)
        pos = np.bincount(cc_k[yd == 1], minlength=nv)
        neg = np.bincount(cc_k[yd == 0], minlength=nv)
        return pa.table(
            {
                "token": vocab,
                "partial_pos": pa.array(pos.astype(np.int64)),
                "partial_neg": pa.array(neg.astype(np.int64)),
            }
        )

    def doc_totals(batch: pa.Table) -> pa.Table:
        y = np.asarray(label_fn(batch), dtype=np.int64)
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "partial_p": pa.array([int(y.sum())], pa.int64()),
                "partial_n": pa.array([int(y.shape[0] - y.sum())],
                                      pa.int64()),
            }
        )

    tot = tree_reduce(
        ds.map_batches(
            doc_totals, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["one"], {"partial_p": "p", "partial_n": "n"},
    ).to_pandas()
    P = int(tot["p"].iloc[0]) if len(tot) else 0
    N = int(tot["n"].iloc[0]) if len(tot) else 0
    if P + N > max_docs_exact:
        raise ValueError(
            f"token_label_stats: {P + N} docs exceeds the int64-exact "
            f"χ² budget ({max_docs_exact}); shard the corpus or use the "
            "float statistic"
        )

    dfs = tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "token", {"partial_pos": "df_pos", "partial_neg": "df_neg"},
        int_cols=("partial_pos", "partial_neg"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        dp = batch["df_pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        dn = batch["df_neg"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = dp + dn >= min_df
        dp, dn = dp[m], dn[m]
        diff = dp * (N - dn) - dn * (P - dp)
        return pa.table(
            {
                "token": batch["token"].filter(pa.array(m)),
                "df_pos": pa.array(dp),
                "df_neg": pa.array(dn),
                "chi2_num": pa.array(diff * diff),
            }
        )

    return dfs.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )


def doc_top_tfidf(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-document top TF-IDF token: for each doc, the token maximizing
    ``tf(d,t) · ln(N / df(t))`` (ties → lexicographically smallest
    token). Argmax instead of a score sum keeps the result float-order
    independent (single multiply per candidate), so it oracles exactly.

    Two streaming passes: (1) document frequencies — per-batch unique
    (doc, token) pairs via dictionary-encode + lexsort boundary, Arrow
    groupby combine tree (vocabulary-sized merge, same bound as
    ``token_histogram``); the (token → idf) table is then broadcast
    sorted so ``pc.index_in`` codes ARE lexicographic ranks. (2) scoring
    — per-batch tf per (doc, token) with one lexsort+reduceat, score,
    vectorized per-doc argmax.

    Output: (id_col, top_token, tf).
    """
    n_docs = ds.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, counts = _tokenize_flat(txt)
        if len(flat) == 0:
            return pa.table(
                {"token": pa.array([], pa.string()),
                 "partial_df": pa.array([], pa.int64())}
            )
        enc = pc.dictionary_encode(flat)
        codes = np.asarray(enc.indices).astype(np.int64)
        from georay.index import _ragged_ranges
        owner, _ = _ragged_ranges(counts)
        order = np.lexsort((codes, owner))
        oc, cc = owner[order], codes[order]
        new = np.ones(oc.shape[0], dtype=bool)
        new[1:] = (oc[1:] != oc[:-1]) | (cc[1:] != cc[:-1])
        uniq_codes = cc[new]
        dfc = np.bincount(uniq_codes, minlength=len(enc.dictionary))
        nz = np.nonzero(dfc)[0]
        return pa.table(
            {
                "token": enc.dictionary.take(pa.array(nz)),
                "partial_df": pa.array(dfc[nz], pa.int64()),
            }
        )

    def df_combine(batch: pa.Table, out: str) -> pa.Table:
        g = batch.group_by("token").aggregate([("partial_df", "sum")])
        return pa.table({"token": g["token"], out: g["partial_df_sum"]})

    from georay.ops import COMBINE_TARGET_ROWS

    parts = ds.map_batches(
        df_partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    comb = parts.map_batches(
        lambda b: df_combine(b, "partial_df"),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=COMBINE_TARGET_ROWS, num_cpus=0.5,
    )
    df_tbl = pa.concat_tables(
        comb.map_batches(
            lambda b: df_combine(b, "df"),
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=1 << 40, num_cpus=0.9,
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    # sorted vocab ⇒ index_in codes are lexicographic ranks (tie order)
    order = pc.sort_indices(df_tbl, sort_keys=[("token", "ascending")])
    df_tbl = df_tbl.take(order)
    vocab = df_tbl["token"].combine_chunks() if isinstance(
        df_tbl["token"], pa.ChunkedArray) else df_tbl["token"]
    idf = np.log(float(n_docs) / df_tbl["df"].to_numpy(zero_copy_only=False))
    import ray as _ray

    bcast = _ray.put((vocab, idf))
    cache: dict = {}

    def score(batch: pa.Table) -> pa.Table:
        vcb, idfv = cache.setdefault("m", _ray.get(bcast))
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, counts = _tokenize_flat(txt)
        ids = batch[id_col]
        codes = np.asarray(pc.index_in(flat, value_set=vcb)).astype(np.int64)
        from georay.index import _ragged_ranges
        owner, _ = _ragged_ranges(counts)
        order = np.lexsort((codes, owner))
        oc, cc = owner[order], codes[order]
        new = np.ones(oc.shape[0], dtype=bool) if oc.shape[0] else np.zeros(0, bool)
        if oc.shape[0]:
            new[1:] = (oc[1:] != oc[:-1]) | (cc[1:] != cc[:-1])
        starts = np.flatnonzero(new)
        run_len = np.diff(np.append(starts, oc.shape[0]))
        p_owner, p_code, p_tf = oc[starts], cc[starts], run_len
        s = p_tf * idfv[p_code]
        # per-doc argmax with (score desc, code asc): pairs are already
        # (owner, code)-sorted, so a stable max scan keeps the smallest
        # code on ties — lexsort by (-s within owner) with stable kind
        sel = np.lexsort((p_code, -s, p_owner))
        so = p_owner[sel]
        first = np.ones(so.shape[0], dtype=bool)
        first[1:] = so[1:] != so[:-1]
        win = sel[first]
        return pa.table(
            {
                id_col: ids.take(pa.array(p_owner[win])) if not isinstance(ids, pa.ChunkedArray) else ids.combine_chunks().take(pa.array(p_owner[win])),
                "top_token": vcb.take(pa.array(p_code[win])),
                "tf": pa.array(p_tf[win], pa.int64()),
            }
        )

    return ds.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


# ------------------------------------------------- repetition / redaction

def repetition_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Gopher-style repetition signals per document, all vectorized:
    token count, distinct-token count, top-token fraction, and the
    fraction of 2-grams belonging to a repeated 2-gram type. Tokens are
    dictionary-encoded per batch (exact, no hash collisions); per-doc
    grouping is one np.unique over composite int64 keys."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    flat, counts = _tokenize_flat(text)
    n = len(batch)
    codes_arr = flat.dictionary_encode()
    codes = codes_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    K = np.int64(len(codes_arr.dictionary))
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)

    # per-(doc, token) counts → distinct + top fraction
    key = doc_idx * K + codes
    uk, ucnt = np.unique(key, return_counts=True)
    udoc = uk // K
    n_distinct = np.bincount(udoc, minlength=n)
    top_c = np.zeros(n, np.int64)
    np.maximum.at(top_c, udoc, ucnt)
    n_tok = counts
    top_frac = top_c / n_tok  # counts ≥ 1 (empty doc → one empty token)

    # adjacent 2-grams within each doc
    same = doc_idx[1:] == doc_idx[:-1]
    a, b, d2doc = codes[:-1][same], codes[1:][same], doc_idx[:-1][same]
    assert int(K) * int(K) * max(n, 1) < 2**62, "2-gram key overflow"
    pkey = (d2doc * K + a) * K + b
    upk, upcnt = np.unique(pkey, return_counts=True)
    updoc = upk // (K * K)
    n2 = np.bincount(d2doc, minlength=n)
    dup2 = np.zeros(n, np.int64)
    rep = upcnt > 1
    np.add.at(dup2, updoc[rep], upcnt[rep])
    with np.errstate(invalid="ignore", divide="ignore"):
        dup2_frac = np.where(n2 > 0, dup2 / np.maximum(n2, 1), 0.0)

    rnd = lambda x: np.floor(x * 1e6 + 0.5) / 1e6  # SQL round(): half-away
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.table(
        {
            id_col: ids,
            "n_tok": pa.array(n_tok, pa.int64()),
            "n_distinct": pa.array(n_distinct.astype(np.int64)),
            "top_frac": pa.array(rnd(top_frac)),
            "dup2_frac": pa.array(rnd(dup2_frac)),
        }
    )


def add_repetition(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: repetition_batch(b, text_col, id_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


REDACT_PATTERN = r"\b(key|hash|scan)\b"


def redact_batch(
    batch: pa.Table,
    text_col: str = "text",
    pattern: str = REDACT_PATTERN,
    replacement: str = "<REDACTED>",
    out_col: str = "redacted",
    count_col: str = "n_redacted",
) -> pa.Table:
    """PII-style scrub: RE2 global replace + match count, both C-path
    pyarrow kernels (pyarrow and DuckDB both use RE2, so a SQL
    regexp_replace(..., 'g') oracle matches byte-for-byte)."""
    text = batch[text_col]
    red = pc.replace_substring_regex(text, pattern=pattern, replacement=replacement)
    cnt = pc.count_substring_regex(text, pattern)
    return batch.append_column(out_col, red).append_column(
        count_col, cnt.cast(pa.int64())
    )


def add_redact(ds: ray.data.Dataset, text_col: str = "text", **kw) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: redact_batch(b, text_col, **kw),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def chunk_batch(
    batch: pa.Table,
    id_col: str = "doc_id",
    text_col: str = "text",
    size: int = 120,
    stride: int = 90,
) -> pa.Table:
    """Sliding-window document chunking (the training-sample splitter):
    each doc emits chunks starting at 0, stride, 2·stride, … while the
    start is inside the doc; each chunk is ``size`` BYTES (== characters
    for ASCII corpora — byte-based so the whole batch is one flat-buffer
    gather, no per-row Python; multi-byte UTF-8 may split a codepoint at
    a chunk edge). The last chunk may be shorter. Empty docs emit no
    chunks. Per-row output: (id, chunk_idx, chunk).
    """
    from georay.index import _ragged_ranges

    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    txt = txt.cast(pa.large_binary())
    # flat values buffer + per-doc offsets (honor a sliced array's offset)
    buf = np.frombuffer(txt.buffers()[2] or b"", dtype=np.uint8)
    offs = np.frombuffer(
        txt.buffers()[1], dtype=np.int64, count=txt.offset + len(txt) + 1
    )[txt.offset:]
    doc_start, doc_len = offs[:-1], np.diff(offs)
    n_chunks = -(-doc_len // stride)  # ceil; 0-length docs -> 0 chunks
    owner, idx = _ragged_ranges(n_chunks)
    c_start = doc_start[owner] + idx * stride
    c_len = np.minimum(size, doc_start[owner] + doc_len[owner] - c_start)
    byte_owner, byte_within = _ragged_ranges(c_len)
    gathered = buf[c_start[byte_owner] + byte_within]
    out_offs = np.zeros(c_len.shape[0] + 1, dtype=np.int64)
    np.cumsum(c_len, out=out_offs[1:])
    chunks = pa.LargeStringArray.from_buffers(
        c_len.shape[0],
        pa.py_buffer(out_offs.tobytes()),
        pa.py_buffer(gathered.tobytes()),
    )
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.table(
        {
            id_col: ids.take(pa.array(owner)),
            "chunk_idx": pa.array(idx),
            "chunk": chunks.cast(pa.string()),
        }
    )


def chunk_documents(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    size: int = 120,
    stride: int = 90,
) -> ray.data.Dataset:
    """Distributed sliding-window chunker: a pure row-expanding
    ``map_batches`` (≈ size/stride × input bytes out), no shuffle —
    chunks stream straight into downstream dedup/tokenize stages."""
    if stride <= 0 or size <= 0:
        raise ValueError("size and stride must be positive")
    return ds.map_batches(
        lambda b: chunk_batch(b, id_col, text_col, size, stride),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def doc_rare_bigrams(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    rare_max: int = 1,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Corpus-novelty quality signal (the integer-exact core of n-gram
    LM filtering à la CCNet): per document, the number of its bigrams
    whose GLOBAL corpus frequency is ≤ ``rare_max``, plus its total
    bigram count. ONE shuffle, one pass: the bigram stream is hash-
    bucketed by bigram, so a bucket group holds every occurrence of its
    bigrams — global frequency is the in-group segment size — and each
    bucket emits per-doc (total, rare) partials merged by the combine
    tree. No bigram table is materialized and no join runs.

    Output: (id, n_bigrams, n_rare) for every doc with ≥ 1 bigram."""
    from georay.index import _ragged_ranges
    from georay.ops import _bytes_hash, _group_reduce, shuffle_coalesce, tree_sum

    def to_bigrams(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks, counts = _tokenize_flat(txt)
        n = len(toks)
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if n < 2:
            return pa.table(
                {id_col: ids.slice(0, 0), "bg": pa.array([], pa.string()),
                 "_bucket": pa.array([], pa.int64())}
            )
        owner, _ = _ragged_ranges(counts)
        ln = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
        # adjacent pairs inside one doc; empty tokens (empty doc -> [""])
        # produce no bigrams, matching regexp_extract_all('\S+') = []
        valid = (owner[1:] == owner[:-1]) & (ln[:-1] > 0) & (ln[1:] > 0)
        mask = pa.array(valid)
        left = toks.slice(0, n - 1).filter(mask)
        right = toks.slice(1).filter(mask)
        bg = pc.binary_join_element_wise(left, right, " ")
        h = _bytes_hash(bg)
        return pa.table(
            {
                id_col: ids.take(pa.array(owner[:-1][valid])),
                "bg": bg,
                "_bucket": pa.array(
                    (h % np.uint64(n_buckets)).astype(np.int64)
                ),
            }
        )

    stream = ds.map_batches(
        to_bigrams, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_columns(["_bucket"])
        order = pc.sort_indices(group, sort_keys=[("bg", "ascending")])
        g = group.take(order)
        n = len(g)
        if n == 0:
            return pa.table(
                {id_col: g[id_col], "tot": pa.array([], pa.int64()),
                 "rare": pa.array([], pa.int64())}
            )
        bg = g["bg"].combine_chunks() if isinstance(g["bg"], pa.ChunkedArray) else g["bg"]
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = np.asarray(
            pc.not_equal(bg.slice(1), bg.slice(0, n - 1))
        )
        seg_id = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, n))
        rare_row = (sizes <= rare_max)[seg_id]
        k = g[id_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce(
            [k],
            {"tot": np.ones(n, np.int64), "rare": rare_row.astype(np.int64)},
        )
        return pa.table(
            {id_col: pa.array(ks[0]), "tot": pa.array(vs["tot"]),
             "rare": pa.array(vs["rare"])}
        )

    parts = (
        shuffle_coalesce(stream)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )
    return tree_sum(
        parts, id_col, {"tot": "n_bigrams", "rare": "n_rare"},
        int_cols=("tot", "rare"),
    )


def _flat_ngrams(txt: pa.Array, n: int):
    """Flat word n-grams over a batch: ``(ngram strings, owner doc
    index, per-doc n-gram counts)``. Tokenization is the engine canon
    (``_tokenize_flat`` ≡ SQL ``regexp_extract_all(lower(text),
    '\\S+')``); a doc with t tokens yields max(t-n+1, 0) n-grams joined
    by single spaces. One slice+filter per position, one
    ``binary_join_element_wise`` C call — no per-row Python."""
    from georay.index import _ragged_ranges

    toks, counts = _tokenize_flat(txt)
    ntok = len(toks)
    ndoc = counts.shape[0]
    if ntok < n:
        return (
            pa.array([], pa.string()),
            np.zeros(0, np.int64),
            np.zeros(ndoc, np.int64),
        )
    owner, _ = _ragged_ranges(counts)
    ln = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
    nz = ln > 0  # empty docs normalize to one "" token -> no n-grams
    m = ntok - n + 1
    ok = owner[:m] == owner[n - 1:]
    for j in range(n):
        ok = ok & nz[j:j + m]
    mask = pa.array(ok)
    parts = [toks.slice(j, m).filter(mask) for j in range(n)]
    ng = pc.binary_join_element_wise(*parts, " ")
    own = owner[:m][ok]
    return ng, own, np.bincount(own, minlength=ndoc)


def source_ngram_overlap(
    ds: ray.data.Dataset,
    text_col: str = "text",
    source_col: str = "source",
    n: int = 3,
    n_buckets: int = 64,
    final: str = "tree",
) -> ray.data.Dataset:
    """Cross-source contamination audit: for every pair of sources,
    the number of DISTINCT word n-grams present in BOTH — the overlap
    matrix a curation campaign reads before mixing corpora (two
    crawls sharing most n-grams are the same crawl; a benchmark set
    sharing n-grams with train data is a leak). Output
    ``(src_a, src_b, n_shared)``, pairs with ≥ 1 shared n-gram.

    Plan: (1) per batch, distinct (source, n-gram) presence pairs via
    the flat n-gram kernel + one grouped reduction; (2) the presence
    table dedups through the combine tree keyed by (source, gram) —
    pass ``final="shuffle"`` when the distinct-n-gram universe exceeds
    one worker; (3) one gram-hash bucket co-shuffle expands each gram's
    source set to pairs (≤ C(n_sources, 2) per gram — sources are few,
    grams are many: the classic small-item/large-group co-occurrence
    shape), and the pair counts merge through a tiny tree. The corpus
    text never shuffles; only (source, gram) keys move."""
    from georay.analytics import _group_starts, _pairs_within_groups
    from georay.ops import _group_reduce, tree_sum

    proj = ds.select_columns([text_col, source_col])

    def presence(batch: pa.Table) -> pa.Table:
        # NULL text or NULL source rows contribute nothing (SQL: NULL
        # token arrays unnest to no rows; NULL sources join nothing)
        keep = pc.and_(pc.is_valid(batch[text_col]),
                       pc.is_valid(batch[source_col]))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        src = batch[source_col].to_numpy(zero_copy_only=False)
        grams, owner, _ = _flat_ngrams(txt, n)
        g = grams.to_numpy(zero_copy_only=False)
        s = src[owner]
        ks, vs = _group_reduce(
            [s, g], {"partial_one": np.ones(s.shape[0], np.int64)}
        )
        return pa.table(
            {
                "src": pa.array(ks[0], pa.string()),
                "gram": pa.array(ks[1], pa.string()),
                "partial_one": pa.array(
                    np.ones(ks[0].shape[0], np.int64)
                ),
            }
        )

    pres = tree_sum(
        proj.map_batches(
            presence, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["src", "gram"], {"partial_one": "c"}, int_cols=("partial_one",),
        final=final,
    )

    from georay.analytics import _bucketed

    def per_gram_pairs(group: pa.Table) -> pa.Table:
        g = group["gram"].to_numpy(zero_copy_only=False)
        s = group["src"].to_numpy(zero_copy_only=False)
        order, starts, _ = _group_starts(g, s, group_keys=1)
        s_s = s[order]
        i, j = _pairs_within_groups(starts, s_s.shape[0])
        if i.shape[0] == 0:
            return pa.table(
                {
                    "src_a": pa.array([], pa.string()),
                    "src_b": pa.array([], pa.string()),
                    "partial_n": pa.array([], pa.int64()),
                }
            )
        # sources sorted within each gram group ⇒ s_s[i] < s_s[j]
        ks, vs = _group_reduce(
            [s_s[i], s_s[j]], {"partial_n": np.ones(i.shape[0], np.int64)}
        )
        return pa.table(
            {
                "src_a": pa.array(ks[0], pa.string()),
                "src_b": pa.array(ks[1], pa.string()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    pairs = _bucketed(pres, ["gram"], n_buckets).map_groups(
        per_gram_pairs, batch_format="pyarrow"
    )
    return tree_sum(
        pairs, ["src_a", "src_b"], {"partial_n": "n_shared"},
        int_cols=("partial_n",),
    )


def decontaminate(
    ds: ray.data.Dataset,
    bench: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    bench_text_col: str | None = None,
    n: int = 3,
) -> ray.data.Dataset:
    """Benchmark decontamination — the eval-overlap gate every large
    pretraining pipeline runs (GPT-3 appendix C / Gopher / Llama style):
    per corpus document, its word n-gram count and how many of those
    n-grams occur ANYWHERE in the benchmark corpus; callers drop or
    flag docs whose hit ratio crosses a threshold.

    Scale shape: eval benchmarks are small by construction (thousands
    of docs, not the 100-TB corpus), so the distinct benchmark n-grams
    are reduced per-batch FIRST (only unique strings leave each task),
    unioned once on the driver, and broadcast via ``ray.put`` — read
    once per worker, not per batch. The corpus side streams: ONE
    ``pc.is_in`` C probe per batch, no shuffle, no join, nothing
    materialized. Output: ``(id_col, n_ngrams, n_hits)`` for every doc
    with ≥ 1 n-gram.
    """
    bench_text_col = bench_text_col or text_col

    def bench_partial(batch: pa.Table) -> pa.Table:
        txt = batch[bench_text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        ng, _, _ = _flat_ngrams(txt, n)
        return pa.table({"ng": pc.unique(ng)})

    batches = [
        b
        for b in bench.map_batches(
            bench_partial,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=None,
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    if batches:
        vocab = pc.unique(pa.concat_tables(batches)["ng"].combine_chunks())
    else:
        vocab = pa.array([], pa.string())
    ref = ray.put(vocab)
    cache: dict = {}

    def probe(batch: pa.Table) -> pa.Table:
        vs = cache.setdefault("v", ray.get(ref))
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ng, own, per_doc = _flat_ngrams(txt, n)
        hit = pc.is_in(ng, value_set=vs).to_numpy(zero_copy_only=False)
        hits = np.bincount(own[hit], minlength=per_doc.shape[0])
        keep = pa.array(per_doc > 0)
        return pa.table(
            {
                id_col: ids.filter(keep),
                "n_ngrams": pa.array(per_doc).filter(keep),
                "n_hits": pa.array(hits).filter(keep),
            }
        )

    return ds.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


# ------------------------------------------------- BM25 / language model

def bm25_topk(
    ds: ray.data.Dataset,
    query_terms: list[str],
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    k1: float = 1.2,
    b: float = 0.75,
) -> ray.data.Dataset:
    """Distributed BM25 search: top-``k`` documents for a fixed bag of
    query terms. Two streaming passes: (1) corpus stats — N, Σdl and one
    df per query term, reduced per batch to a SINGLE partial row (a few
    ints; the corpus never moves) and tree-merged; (2) scoring — per-
    batch tf per term via one ``pc.index_in`` + ``bincount``, the BM25
    sum accumulated term-by-term (fixed order), then the combine-tree
    ``top_k``. No shuffle anywhere.

    The idf is the RATIONAL Robertson idf (N − df + 0.5)/(df + 0.5)
    WITHOUT the log: per-term ranking is identical (ln is monotone) and
    every operation stays IEEE +|−|×|÷ over exact integers, so the
    DuckDB oracle hash-matches bit-for-bit (numpy ``log`` and DuckDB
    ``ln`` differ at ulp level on this host). Constants mirror the SQL
    literally: 2.2e0 = k1+1, 0.25e0 = 1−b.

    Output: (id_col, score) — docs containing no query term are
    excluded (their score is exactly 0)."""
    terms = pa.array(list(query_terms), pa.string())
    n_terms = len(query_terms)
    from georay.index import _ragged_ranges
    from georay.ops import top_k

    def stats_partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, counts = _tokenize_flat(txt)
        owner, _ = _ragged_ranges(counts)
        codes = pc.fill_null(
            pc.index_in(flat, value_set=terms), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {
            "n_docs": pa.array([counts.shape[0]], pa.int64()),
            "sum_dl": pa.array([int(counts.sum())], pa.int64()),
        }
        for t in range(n_terms):
            docs_with = np.unique(owner[codes == t]).shape[0]
            cols[f"df_{t}"] = pa.array([docs_with], pa.int64())
        return pa.table(cols)

    def stats_merge(batch: pa.Table) -> pa.Table:
        return pa.table(
            {c: pa.array([int(batch[c].to_numpy(zero_copy_only=False).sum())],
                         pa.int64())
             for c in batch.column_names}
        )

    from georay.ops import COMBINE_TARGET_ROWS

    stats_ds = ds.map_batches(
        stats_partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).map_batches(
        stats_merge, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=COMBINE_TARGET_ROWS, num_cpus=0.5,
    ).map_batches(
        stats_merge, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1 << 40, num_cpus=0.9,
    )
    stat_rows = stats_ds.take_all()
    if not stat_rows or int(stat_rows[0]["n_docs"]) == 0:
        return ray.data.from_arrow(
            pa.table({id_col: pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
        )
    stats = stat_rows[0]
    n_docs = int(stats["n_docs"])
    avgdl = float(stats["sum_dl"]) / float(n_docs)
    idf = np.array(
        [
            (float(n_docs - int(stats[f"df_{t}"])) + 0.5)
            / (float(int(stats[f"df_{t}"])) + 0.5)
            for t in range(n_terms)
        ]
    )
    k1 = float(k1)
    one_minus_b = 1.0 - float(b)
    bb = float(b)
    k1p1 = k1 + 1.0

    def score(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, counts = _tokenize_flat(txt)
        owner, _ = _ragged_ranges(counts)
        codes = pc.fill_null(
            pc.index_in(flat, value_set=terms), -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        n = counts.shape[0]
        dl = counts.astype(np.float64)
        rat = dl / avgdl
        s = np.zeros(n, dtype=np.float64)
        any_tf = np.zeros(n, dtype=bool)
        for t in range(n_terms):
            tf = np.bincount(owner[codes == t], minlength=n).astype(np.float64)
            denom = tf + k1 * (one_minus_b + bb * rat)
            s = s + (idf[t] * (tf * k1p1)) / denom
            any_tf |= tf > 0
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        keep = pa.array(any_tf)
        return pa.table(
            {id_col: ids, "score": pa.array(s, pa.float64())}
        ).filter(keep)

    scored = ds.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return top_k(scored, ["score", id_col], k, descending=[True, False])


def lm_score(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    scale_bits: int = 20,
) -> ray.data.Dataset:
    """Bigram language-model likelihood scoring — the classic
    perplexity-style quality signal: train bigram conditionals on the
    corpus itself, then score each document by the sum of its bigram
    probabilities ``p(w2|w1) = c(w1,w2) / c(w1·)``.

    Each probability is quantized to ``floor(p · 2^scale_bits)`` —
    power-of-two scaling is EXACT in IEEE doubles and the per-doc sum
    becomes order-free int64 arithmetic, so the DuckDB oracle
    hash-matches (a float log-prob sum would be summation-order
    dependent; quantized-likelihood keeps the ranking signal). Higher
    ``lm_q / n_bigrams`` = more predictable text.

    Plan: (1) bigram counts via per-batch Arrow hash-group partials +
    combine tree (bigram vocabulary merges, the corpus doesn't);
    (2) the (w1,w2)→q table is built on the driver (vectorized) and
    broadcast once via ``ray.put``; (3) scoring is one ``index_in`` +
    ``reduceat`` per batch. For an unbounded bigram vocabulary swap
    stage (2-3) for the partitioned equality join on (w1,w2).

    Output: (id_col, n_bigrams, lm_q) — one row per input document
    (docs with < 2 tokens get zeros)."""
    from georay.index import _ragged_ranges
    from georay.ops import COMBINE_TARGET_ROWS

    def _bigrams(txt: pa.Array):
        flat, counts = _tokenize_flat(txt)
        owner, within = _ragged_ranges(counts)
        valid = within < (counts[owner] - 1)
        idx = np.flatnonzero(valid)
        w1 = flat.take(pa.array(idx))
        w2 = flat.take(pa.array(idx + 1))
        return w1, w2, owner[idx], counts.shape[0]

    def count_partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        w1, w2, _, _ = _bigrams(txt)
        t = pa.table(
            {"w1": w1, "w2": w2,
             "partial_n": pa.array(np.ones(len(w1), np.int64))}
        )
        g = t.group_by(["w1", "w2"]).aggregate([("partial_n", "sum")])
        return pa.table(
            {"w1": g["w1"], "w2": g["w2"], "partial_n": g["partial_n_sum"]}
        )

    def count_combine(batch: pa.Table, out: str) -> pa.Table:
        g = batch.group_by(["w1", "w2"]).aggregate([("partial_n", "sum")])
        return pa.table({"w1": g["w1"], "w2": g["w2"], out: g["partial_n_sum"]})

    parts = ds.map_batches(
        count_partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).map_batches(
        lambda t: count_combine(t, "partial_n"),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=COMBINE_TARGET_ROWS, num_cpus=0.5,
    ).map_batches(
        lambda t: count_combine(t, "c2"),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1 << 40, num_cpus=0.9,
    )
    batches = list(parts.iter_batches(batch_format="pyarrow", batch_size=None))
    if not batches:
        batches = [
            pa.table(
                {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
                 "c2": pa.array([], pa.int64())}
            )
        ]
    bt = pa.concat_tables(batches)
    # c1(w1) = Σ_w2 c2 (first-position unigram totals)
    g1 = bt.group_by("w1").aggregate([("c2", "sum")])
    w1_arr = bt["w1"].combine_chunks() if isinstance(bt["w1"], pa.ChunkedArray) else bt["w1"]
    w2_arr = bt["w2"].combine_chunks() if isinstance(bt["w2"], pa.ChunkedArray) else bt["w2"]
    c2 = bt["c2"].to_numpy(zero_copy_only=False).astype(np.float64)
    c1_codes = pc.index_in(w1_arr, value_set=g1["w1"].combine_chunks() if isinstance(g1["w1"], pa.ChunkedArray) else g1["w1"])
    c1v = g1["c2_sum"].to_numpy(zero_copy_only=False).astype(np.float64)[
        c1_codes.to_numpy(zero_copy_only=False).astype(np.int64)
    ]
    scale = float(1 << scale_bits)
    q = np.floor((c2 / c1v) * scale).astype(np.int64)
    key = pc.binary_join_element_wise(w1_arr, w2_arr, " ")
    import ray as _ray

    bcast = _ray.put((key, q))
    cache: dict = {}

    def score(batch: pa.Table) -> pa.Table:
        keys, qv = cache.setdefault("m", _ray.get(bcast))
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        w1, w2, owner, n = _bigrams(txt)
        bg = pc.binary_join_element_wise(w1, w2, " ")
        codes = pc.index_in(bg, value_set=keys).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        qs = qv[codes]
        sums = np.zeros(n, dtype=np.int64)
        nb = np.bincount(owner, minlength=n).astype(np.int64)
        if owner.size:
            # bigrams are emitted in doc order ⇒ owner is sorted:
            # one reduceat instead of buffered add.at
            firsts = np.ones(owner.size, dtype=bool)
            firsts[1:] = owner[1:] != owner[:-1]
            starts = np.flatnonzero(firsts)
            sums[owner[starts]] = np.add.reduceat(qs, starts)
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table(
            {
                id_col: ids,
                "n_bigrams": pa.array(nb, pa.int64()),
                "lm_q": pa.array(sums, pa.int64()),
            }
        )

    return ds.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


# --------------------------------------------------------- BPE tokenizer

def bpe_train(
    ds: ray.data.Dataset,
    n_merges: int = 200,
    text_col: str = "text",
    end_of_word: str = "▁",
) -> list[tuple[str, str]]:
    """Train byte-pair-encoding merges (Sennrich et al. 2016) on a
    corpus — the standard tokenizer-training recipe, distributed the
    way real trainers are: ONE streaming wordcount pass reduces the
    corpus to its word-frequency table (``token_histogram`` — the
    corpus never concentrates; only the vocabulary does), then the
    merge loop runs over that o(vocab) table on the driver. Ties in
    pair frequency break lexicographically, so training is
    deterministic across runs/partitionings.

    Returns the ordered merge list (earlier = higher priority). Words
    are char sequences with ``end_of_word`` appended to the last char
    (classic word-boundary marker)."""
    wc = pa.concat_tables(
        token_histogram(ds, text_col).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    words = wc["token"].to_pylist()
    counts = wc["n"].to_pylist()
    seqs: list[list[str]] = []
    freqs: list[int] = []
    for w, c in zip(words, counts):
        if not w:
            continue
        s = list(w)
        s[-1] = s[-1] + end_of_word
        seqs.append(s)
        freqs.append(int(c))
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        pair_counts: dict[tuple[str, str], int] = {}
        for s, c in zip(seqs, freqs):
            for i in range(len(s) - 1):
                p = (s[i], s[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + c
        if not pair_counts:
            break
        # deterministic tie-break: highest count, then lexicographically
        # smallest pair
        best_count = max(pair_counts.values())
        best = min(p for p, c in pair_counts.items() if c == best_count)
        merges.append(best)
        a, b = best
        ab = a + b
        for s in seqs:
            i = 0
            while i < len(s) - 1:
                if s[i] == a and s[i + 1] == b:
                    s[i] = ab
                    del s[i + 1]
                else:
                    i += 1
    return merges


def _bpe_apply(word: str, ranks: dict[tuple[str, str], int], end_of_word: str) -> int:
    """Number of BPE tokens for one word under the trained merges
    (greedy lowest-rank-first, the standard decode order)."""
    s = list(word)
    if not s:
        return 0
    s[-1] = s[-1] + end_of_word
    while len(s) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(s) - 1):
            r = ranks.get((s[i], s[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        s[best_i] = s[best_i] + s[best_i + 1]
        del s[best_i + 1]
    return len(s)


class BpeTokenCounter:
    """Actor-pool stage: per-document BPE token counts under a trained
    merge list. The merge ranks dict builds ONCE per actor
    (``__init__``); per batch, only the batch's UNIQUE words are
    BPE-segmented (dictionary-encode first) and results accumulate in a
    per-actor word→len cache, so steady-state cost is a dictionary
    lookup per unique word — the corpus-frequency (Zipf) distribution
    makes the cache hit rate ≈ 1. This is the canonical 'stateful
    setup in __init__, vectorized probe in __call__' shape."""

    def __init__(self, merges: list[tuple[str, str]], text_col: str = "text",
                 end_of_word: str = "▁"):
        self.ranks = {tuple(m): i for i, m in enumerate(merges)}
        self.text_col = text_col
        self.eow = end_of_word
        self.cache: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = batch[self.text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, counts = _tokenize_flat(txt)
        enc = pc.dictionary_encode(flat)
        vocab = enc.dictionary.to_pylist()
        lens = np.empty(len(vocab), dtype=np.int64)
        for i, w in enumerate(vocab):
            v = self.cache.get(w)
            if v is None:
                v = _bpe_apply(w, self.ranks, self.eow)
                self.cache[w] = v
            lens[i] = v
        codes = np.asarray(enc.indices).astype(np.int64)
        per_token = lens[codes]
        from georay.index import _ragged_ranges

        owner, _ = _ragged_ranges(counts)
        n = counts.shape[0]
        sums = np.zeros(n, dtype=np.int64)
        if owner.size:
            firsts = np.ones(owner.size, dtype=bool)
            firsts[1:] = owner[1:] != owner[:-1]
            starts = np.flatnonzero(firsts)
            sums[owner[starts]] = np.add.reduceat(per_token, starts)
        return batch.append_column("n_bpe_tokens", pa.array(sums, pa.int64()))


def add_bpe_token_count(
    ds: ray.data.Dataset,
    merges: list[tuple[str, str]],
    text_col: str = "text",
    concurrency=None,
) -> ray.data.Dataset:
    """Attach per-doc BPE token counts (see ``BpeTokenCounter``)."""
    return ds.map_batches(
        BpeTokenCounter,
        fn_constructor_kwargs={"merges": merges, "text_col": text_col},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
        concurrency=concurrency or (1, 8),
    )


def pmi_collocations(
    ds: ray.data.Dataset,
    text_col: str = "text",
    min_count: int = 5,
    k: int = 100,
    scale_bits: int = 20,
) -> ray.data.Dataset:
    """COLLOCATION EXTRACTION — the top-k adjacent word pairs by
    (quantized) pointwise mutual information:
    ``pmi_q = ((c_xy << scale_bits) // c_x · N) // c_y`` where c_xy is
    the bigram count, c_x/c_y unigram counts and N total tokens — the
    staged integer division keeps every intermediate below 2^63 (c_xy
    ≤ c_x bounds the first quotient by 2^scale_bits) and is replicated
    verbatim in the SQL twin, so the ranking is bit-exact. Pairs below
    ``min_count`` are dropped (PMI's low-frequency pathology); ties
    break on (w1, w2) ascending for a deterministic top-k.

    Plan: unigram and bigram histograms fold map-side and merge through
    combine trees (vocabulary-sized — the corpus never shuffles); the
    unigram table broadcasts once for the two ``index_in`` probes; the
    final top-k is the standard per-block prune + single merge."""
    from georay import ops as _ops
    from georay.ops import COMBINE_TARGET_ROWS
    from georay.index import _ragged_ranges

    def _bigrams(txt: pa.Array):
        flat, counts = _tokenize_flat(txt)
        owner, within = _ragged_ranges(counts)
        valid = within < (counts[owner] - 1)
        idx = np.flatnonzero(valid)
        return flat.take(pa.array(idx)), flat.take(pa.array(idx + 1)), flat

    def uni_partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, _ = _tokenize_flat(txt)
        t = pa.table(
            {"t": flat, "partial_c": pa.array(np.ones(len(flat), np.int64))}
        )
        g = t.group_by("t").aggregate([("partial_c", "sum")])
        return pa.table({"t": g["t"], "partial_c": g["partial_c_sum"]})

    uni = _ops.tree_sum(
        ds.select_columns([text_col]).map_batches(
            uni_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["t"], {"partial_c": "c"}, int_cols=("partial_c",),
    )
    ut = pa.concat_tables(ray.get(uni.to_arrow_refs()))
    if ut.num_rows == 0 or "t" not in ut.column_names:
        return ray.data.from_arrow(
            pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "c_xy": pa.array([], pa.int64()),
                    "pmi_q": pa.array([], pa.int64()),
                }
            )
        )
    toks = ut["t"].combine_chunks() if isinstance(ut["t"], pa.ChunkedArray) else ut["t"]
    cnts = ut["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_total = int(cnts.sum())
    ref = ray.put((toks, cnts))
    cache: dict = {}

    def bg_partial(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        w1, w2, _ = _bigrams(txt)
        t = pa.table(
            {"w1": w1, "w2": w2,
             "partial_n": pa.array(np.ones(len(w1), np.int64))}
        )
        g = t.group_by(["w1", "w2"]).aggregate([("partial_n", "sum")])
        return pa.table(
            {"w1": g["w1"], "w2": g["w2"], "partial_n": g["partial_n_sum"]}
        )

    bg = _ops.tree_sum(
        ds.select_columns([text_col]).map_batches(
            bg_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["w1", "w2"], {"partial_n": "c_xy"}, int_cols=("partial_n",),
    )

    def score(batch: pa.Table) -> pa.Table:
        tv, tc = cache.setdefault("u", ray.get(ref))
        cxy = batch["c_xy"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = cxy >= min_count
        sub = batch.filter(pa.array(keep))
        cxy = cxy[keep]
        if len(sub) == 0:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "c_xy": pa.array([], pa.int64()),
                    "pmi_q": pa.array([], pa.int64()),
                }
            )
        p1 = pc.index_in(sub["w1"], value_set=tv).to_numpy(zero_copy_only=False)
        p2 = pc.index_in(sub["w2"], value_set=tv).to_numpy(zero_copy_only=False)
        cx = tc[p1.astype(np.int64)]
        cy = tc[p2.astype(np.int64)]
        q = ((cxy << np.int64(scale_bits)) // cx * np.int64(n_total)) // cy
        return pa.table(
            {
                "w1": sub["w1"],
                "w2": sub["w2"],
                "c_xy": pa.array(cxy, pa.int64()),
                "pmi_q": pa.array(q, pa.int64()),
            }
        )

    scored = bg.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=COMBINE_TARGET_ROWS,
    )
    return _ops.top_k(
        scored, ["pmi_q", "w1", "w2"], k, descending=[True, False, False]
    )


def editdist_join_qgram(
    left: ray.data.Dataset,
    id_col: str,
    s_col: str,
    k: int = 2,
    q: int = 2,
    n_buckets: int = 64,
    max_gram_group: int = 200_000,
) -> ray.data.Dataset:
    """Exact edit-distance SELF-join: all id pairs (a < b) whose
    strings are within Levenshtein distance ``k`` — near-duplicate
    string clustering (product titles, entity names) with an exact
    verify, the string sibling of the minhash near-dup family.

    Plan (the q-gram COUNT-FILTER join):
    1. every string explodes into positional-multiset q-gram keys
       ``(gram, occurrence#)`` — a pair within distance k shares at
       least ``T = max(len_a, len_b) − q + 1 − k·q`` q-grams counting
       multiplicity (Gravano et al.'s count filter; the multiset is
       what makes the bound safe — distinct grams would under-count
       repeats and drop true pairs);
    2. ONE ``groupby(gram-hash bucket)`` co-shuffle emits candidate
       pairs per (gram, occ) group (length prefilter |Δlen| ≤ k
       applied in-bucket), map-side-combined counts merge through the
       combine tree to per-pair shared-gram counts;
    3. pairs passing the count filter verify with a BATCH-VECTORIZED
       Levenshtein DP (strings padded to (B, Lmax) byte matrices, the
       DP iterates O(Lmax²) numpy steps over the whole batch — no
       per-pair Python). Strings reach the verify via the broadcast
       (id → string) table.

    Partitioning assumptions (documented per the custom-operator
    rule): a (gram, occ) group's pair fan-out is quadratic in its
    size — ``max_gram_group`` guards a stop-gram blowup LOUDLY (the
    kendall convention; prefix-filtering is the scale path beyond);
    strings shorter than ``k·q + q`` have a vacuous count filter and
    pair within one short-band group (same guard). The broadcast
    verify table holds (id, string) for the whole input — swap for a
    partitioned double equi-join at billion-row scale.

    Returns (id_a, id_b, dist int64), id_a < id_b."""
    import ray as _ray

    from georay.ops import (
        COMBINE_TARGET_ROWS,
        _group_reduce,
        _key_hash,
        tree_sum,
    )

    def project(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].cast(pa.int64())
        s = pc.utf8_lower(batch[s_col])
        return pa.table({"id": ids, "s": s})

    base = left.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()

    # broadcast (id → bytes) for the verify stage (documented budget)
    tbl = pa.concat_tables(
        _ray.get(base.to_arrow_refs())
    ).combine_chunks()
    ids_np = tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids_np)
    ids_sorted = ids_np[order]
    if ids_sorted.shape[0] and np.any(ids_sorted[1:] == ids_sorted[:-1]):
        raise ValueError("editdist_join_qgram: duplicate ids")
    strs_sorted = [
        tbl["s"][int(i)].as_py() for i in order
    ]
    sref = _ray.put((ids_sorted, strs_sorted))
    short_len = k * q + q  # count filter vacuous below this length

    def grams(batch: pa.Table) -> pa.Table:
        """Positional-multiset q-gram explode, VECTORIZED for ASCII
        rows (sliding byte windows over the raw string buffer +
        lexsort occurrence numbering); non-ASCII rows — where byte
        grams ≠ character grams — take a per-row fallback with
        identical semantics."""
        ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sarr = batch["s"]
        if isinstance(sarr, pa.ChunkedArray):
            sarr = sarr.combine_chunks()
        n = len(sarr)
        empty = pa.table(
            {
                "g": pa.array([], pa.string()),
                "occ": pa.array([], pa.int64()),
                "id": pa.array([], pa.int64()),
                "len": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        if pa.types.is_large_string(sarr.type):
            offs = np.frombuffer(sarr.buffers()[1], np.int64)
        else:
            offs = np.frombuffer(sarr.buffers()[1], np.int32).astype(
                np.int64
            )
        offs = offs[sarr.offset : sarr.offset + n + 1]
        buf = (
            np.frombuffer(sarr.buffers()[2], np.uint8)
            if sarr.buffers()[2] is not None
            else np.empty(0, np.uint8)
        )
        blen = np.diff(offs)
        null_m = (
            ~sarr.is_valid().to_numpy(zero_copy_only=False)
            if sarr.null_count
            else np.zeros(n, bool)
        )
        clen = np.asarray(
            pc.fill_null(pc.utf8_length(sarr), 0)
        ).astype(np.int64)
        L = np.where(null_m, 0, clen)
        parts = []
        # sentinel rows (short band) — fully vectorized
        sm = L <= short_len + k - 1
        if sm.any():
            nsm = int(sm.sum())
            parts.append(
                pa.table(
                    {
                        "g": pa.array(["\x00short"] * nsm, pa.string()),
                        "occ": pa.array(np.zeros(nsm, np.int64)),
                        "id": pa.array(ids[sm], pa.int64()),
                        "len": pa.array(L[sm], pa.int64()),
                    }
                )
            )
        rm = L >= short_len
        fast = rm & ~null_m & (blen == L)  # byte count == char count ⇒ ASCII
        slow = rm & ~fast
        sel = np.flatnonzero(fast)
        if sel.size and buf.shape[0] >= q:
            ng = (L[sel] - q + 1).astype(np.int64)
            tot = int(ng.sum())
            off2 = np.concatenate(([0], np.cumsum(ng)[:-1]))
            within = np.arange(tot) - np.repeat(off2, ng)
            p = np.repeat(offs[:-1][sel], ng) + within
            win = np.lib.stride_tricks.sliding_window_view(buf, q)
            gb = np.ascontiguousarray(win[p])  # (tot, q) uint8
            goff = np.arange(0, (tot + 1) * q, q, dtype=np.int32)
            ga = pa.Array.from_buffers(
                pa.utf8(), tot,
                [None, pa.py_buffer(goff.tobytes()),
                 pa.py_buffer(gb.tobytes())],
            )
            gi = np.zeros(tot, np.uint64)
            for j in range(q):
                gi = (gi << np.uint64(8)) | gb[:, j]
            rowrep = np.repeat(sel, ng)
            order = np.lexsort((within, gi, rowrep))
            rs, gs = rowrep[order], gi[order]
            new = np.ones(tot, bool)
            new[1:] = (rs[1:] != rs[:-1]) | (gs[1:] != gs[:-1])
            starts = np.flatnonzero(new)
            occ_sorted = np.arange(tot) - np.repeat(
                starts, np.diff(np.append(starts, tot))
            )
            occ = np.empty(tot, np.int64)
            occ[order] = occ_sorted
            parts.append(
                pa.table(
                    {
                        "g": ga,
                        "occ": pa.array(occ, pa.int64()),
                        "id": pa.array(np.repeat(ids[sel], ng), pa.int64()),
                        "len": pa.array(np.repeat(L[sel], ng), pa.int64()),
                    }
                )
            )
        for row in np.flatnonzero(slow):
            s = sarr[int(row)].as_py() or ""
            gid = int(ids[row])
            seen: dict = {}
            og, oo = [], []
            for pch in range(len(s) - q + 1):
                g = s[pch : pch + q]
                occ_ = seen.get(g, 0)
                seen[g] = occ_ + 1
                og.append(g)
                oo.append(occ_)
            parts.append(
                pa.table(
                    {
                        "g": pa.array(og, pa.string()),
                        "occ": pa.array(oo, pa.int64()),
                        "id": pa.array(
                            np.full(len(og), gid, np.int64)
                        ),
                        "len": pa.array(
                            np.full(len(og), len(s), np.int64)
                        ),
                    }
                )
            )
        if not parts:
            return empty
        return pa.concat_tables(parts)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch, ["g", "occ"])
        return batch.append_column(
            "_b", pa.array((h % np.uint64(n_buckets)).astype(np.int64))
        )

    def pair_partial(group: pa.Table) -> pa.Table:
        g = group["g"].to_numpy(zero_copy_only=False)
        occ = group["occ"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lens = group["len"].to_numpy(zero_copy_only=False).astype(np.int64)
        # sort by (gram, occ, id): members of one (gram, occ) key are a
        # run; pairs = within-run cross product (i < j)
        order = np.lexsort((ids, occ, g))
        g, occ, ids, lens = g[order], occ[order], ids[order], lens[order]
        n = ids.shape[0]
        if n == 0:
            return pa.table({
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
            })
        new = np.ones(n, bool)
        new[1:] = (g[1:] != g[:-1]) | (occ[1:] != occ[:-1])
        starts = np.flatnonzero(new)
        run_len = np.diff(np.append(starts, n))
        if int(run_len.max()) > max_gram_group:
            hot = g[starts[np.argmax(run_len)]]
            raise ValueError(
                f"editdist_join_qgram: gram group {hot!r} has "
                f"{int(run_len.max())} members (> max_gram_group="
                f"{max_gram_group}); quadratic pair fan-out — raise the "
                "guard only with a measured budget, or pre-filter stop "
                "grams (prefix filtering is the scale path)"
            )
        pa_, pb_ = [], []
        m = int(run_len.max())
        # vectorized pair emission: ONE ragged round per first-element
        # offset i pairs member i of every live run with ALL its later
        # members (O(max_run) python rounds, not O(max_run²))
        for i in range(m - 1):
            live = run_len > i + 1
            if not live.any():
                break
            s = starts[live]
            cnt = (run_len[live] - i - 1).astype(np.int64)
            tot = int(cnt.sum())
            off = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            within = np.arange(tot) - np.repeat(off, cnt)
            si = np.repeat(s + i, cnt)
            sj = np.repeat(s + i + 1, cnt) + within
            ok = np.abs(lens[si] - lens[sj]) <= k
            if ok.any():
                x, y = ids[si[ok]], ids[sj[ok]]
                pa_.append(np.minimum(x, y))
                pb_.append(np.maximum(x, y))
        if not pa_:
            return pa.table({
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
            })
        aa = np.concatenate(pa_)
        bb = np.concatenate(pb_)
        (ka, kb), outs = _group_reduce(
            [aa, bb], {"c": np.ones(aa.shape[0], np.int64)}
        )
        return pa.table({
            "a": pa.array(ka, pa.int64()),
            "b": pa.array(kb, pa.int64()),
            "c": pa.array(outs["c"].astype(np.int64), pa.int64()),
        })

    shared = tree_sum(
        base.map_batches(
            grams, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
        .map_batches(
            add_bucket, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
        .groupby("_b")
        .map_groups(pair_partial, batch_format="pyarrow"),
        ["a", "b"], {"c": "c"}, int_cols=("c",),
    )

    cache: dict = {}

    def verify(batch: pa.Table) -> pa.Table:
        if "s" not in cache:  # one fetch per worker process
            cache["s"] = _ray.get(sref)
        ids_s, strs = cache["s"]
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        pa_pos = np.searchsorted(ids_s, a)
        pb_pos = np.searchsorted(ids_s, b)
        la = np.array([len(strs[p]) for p in pa_pos], np.int64)
        lb = np.array([len(strs[p]) for p in pb_pos], np.int64)
        # count filter: T vacuous (≤0) for short-band pairs
        T = np.maximum(la, lb) - q + 1 - k * q
        keep = (np.abs(la - lb) <= k) & ((T <= 0) | (c >= T))
        if not keep.any():
            return pa.table({
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "dist": pa.array([], pa.int64()),
            })
        a, b = a[keep], b[keep]
        pa_pos, pb_pos = pa_pos[keep], pb_pos[keep]
        la, lb = la[keep], lb[keep]
        Lmax = int(max(la.max(), lb.max()))
        nb_ = a.shape[0]
        A = np.zeros((nb_, Lmax), np.uint32)
        B = np.zeros((nb_, Lmax), np.uint32)
        for r in range(nb_):
            sa = strs[pa_pos[r]]
            sb = strs[pb_pos[r]]
            A[r, : la[r]] = np.frombuffer(
                sa.encode("utf-32-le"), np.uint32
            )[: la[r]]
            B[r, : lb[r]] = np.frombuffer(
                sb.encode("utf-32-le"), np.uint32
            )[: lb[r]]
        # BANDED (Ukkonen) DP: |i−j| > k cells can never contribute to
        # a distance ≤ k, so each row touches only 2k+1 columns —
        # exact for d ≤ k, and anything clamped at the band edge is
        # ≥ k+1 which the final test discards anyway
        big = np.int64(1 << 30)
        prev = np.tile(np.arange(Lmax + 1, dtype=np.int64), (nb_, 1))
        prev[:, k + 1:] = big  # out-of-band row-0 cells
        la_max = int(la.max())
        for i in range(1, la_max + 1):
            cur = np.full((nb_, Lmax + 1), big, np.int64)
            if i <= k:
                cur[:, 0] = i
            ai = A[:, i - 1]
            for j in range(max(1, i - k), min(Lmax, i + k) + 1):
                cost = (ai != B[:, j - 1]).astype(np.int64)
                cur[:, j] = np.minimum(
                    np.minimum(cur[:, j - 1] + 1, prev[:, j] + 1),
                    prev[:, j - 1] + cost,
                )
            alive = la >= i
            prev = np.where(alive[:, None], cur, prev)
        d = np.minimum(prev[np.arange(nb_), lb], big)
        ok = d <= k
        return pa.table({
            "id_a": pa.array(a[ok], pa.int64()),
            "id_b": pa.array(b[ok], pa.int64()),
            "dist": pa.array(d[ok], pa.int64()),
        })

    return shared.map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=COMBINE_TARGET_ROWS,
    )
