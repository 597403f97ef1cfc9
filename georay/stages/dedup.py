"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes:
- exact: fingerprint per batch (map-side) → ``groupby(fingerprint)``
  keep-first — one shuffle of (id, fingerprint) pairs only.
- MinHash-LSH (``minhash_dedup``): per batch, one flat-buffer shingle
  pass and OPH signatures → explode to (band, band_hash, doc_id,
  sig_low, text) rows, sig_low being the low byte of each of the 64
  mins → ONE ``groupby("band")`` exchange whose reducer pairs bucket
  members, prefilters them on the low bytes, re-shingles only the docs
  of surviving pairs, applies the full estimate floor and verifies
  exact Jaccard in place → distributed connected components
  (min-label propagation, ``georay.stages.components``). Two Ray Data
  executions; no stage materializes the corpus or the candidate pairs
  on the driver. ``verify_pairs_distributed`` verifies an arbitrary
  candidate list against the corpus.
- SimHash: 64-bit signature per doc; near-dup candidates share one of
  four 16-bit bands (Hamming ≤ 3 ⇒ at least one band equal by
  pigeonhole when the 3 differing bits fall in ≤3 bands).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from georay import exchange
from georay.exchange import co_shuffle
from georay.stages.text import add_fingerprint, normalize_text

# ------------------------------------------------------------------ exact

def dedup_exact_text(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Keep the first (min id) row per normalized-text fingerprint."""
    from georay import ops

    ds = add_fingerprint(ds, text_col)
    return ops.dedup_exact(ds, "fingerprint", keep_col=id_col)


# ---------------------------------------------------------------- minhash

N_HASHES = 64
# 16 bands × 4 rows → LSH threshold ≈ (1/16)^(1/4) ≈ 0.5: at the default
# verify threshold 0.8 the candidate recall is 1-(1-0.8^4)^16 ≈ 0.9998
# (8×8 banding caught only ~77% of true 0.8-duplicates); the exact-Jaccard
# verify stage prunes the extra moderate-similarity candidates.
N_BANDS = 16


_POLY_BASE = np.uint64(1099511628211)  # FNV-ish odd base; wraps mod 2^64


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Stable 64-bit hashes of the UNIQUE char k-shingles of the
    normalized text — fully vectorized: a strided byte window × a
    power-of-base vector (uint64 wrap-around = mod 2^64), then a final
    xor-shift mix. ~100× faster than per-shingle digests."""
    s = normalize_text(text or "").encode("utf-8")
    if len(s) == 0:
        return np.empty(0, dtype=np.uint64)
    if len(s) < k:
        b = np.frombuffer(s.ljust(k, b"\0"), dtype=np.uint8).astype(np.uint64)
        win = b[None, :]
    else:
        arr = np.frombuffer(s, dtype=np.uint8)
        win = np.lib.stride_tricks.sliding_window_view(arr, k).astype(np.uint64)
    powers = _POLY_BASE ** np.arange(k, dtype=np.uint64)
    h = (win * powers[None, :]).sum(axis=1)  # wraps mod 2^64
    # xor-shift finalizer (splitmix-style) to spread low bits
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return np.unique(h)


# the ASCII bytes Python's ``\s`` matches (``str.isspace``): \t \n \v \f
# \r, the \x1c-\x1f separators and space; and ASCII ``str.lower``
_ASCII_WS = np.zeros(256, dtype=bool)
_ASCII_WS[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_ASCII_LOWER = np.arange(256, dtype=np.uint8)
_ASCII_LOWER[65:91] += 32


def _sorted_unique_per_doc(h: np.ndarray, counts: np.ndarray, keep=None):
    """Sort each doc's hashes and drop repeats: (hashes, counts) in, the
    same form out; with ``keep`` (bool per doc) the other docs come out
    empty. One argsort of a packed (doc, top hash bits) key, ~13× faster
    than ``lexsort((h, doc))`` on 4.8M hashes; ties of the key are
    repeats unless their dropped low bits are out of order (odds about
    m²/2^(64 − bits) for a doc of m hashes, bits = the doc index width),
    which re-sorts the batch by lexsort."""
    n = counts.shape[0]
    doc = np.repeat(np.arange(n, dtype=np.int64), counts)
    if keep is not None:
        kept = keep[doc]
        h, doc = h[kept], doc[kept]
    bits = max(n - 1, 1).bit_length()
    key = (doc.astype(np.uint64) << np.uint64(64 - bits)) | (h >> np.uint64(bits))
    order = np.argsort(key)
    ks, hs = key[order], h[order]
    if np.any((ks[1:] == ks[:-1]) & (hs[1:] < hs[:-1])):
        order = np.lexsort((h, doc))
        hs = h[order]
    doc = doc[order]
    first = np.ones(hs.shape[0], dtype=bool)
    first[1:] = (hs[1:] != hs[:-1]) | (doc[1:] != doc[:-1])
    return hs[first], np.bincount(doc[first], minlength=n)


def _window_hashes(texts, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Every k-shingle hash of a whole text column in one flat-buffer
    pass: (hashes, counts), each doc's hashes back to back in doc order
    (repeats kept, any order within a doc) plus each doc's count.

    The lane handles ASCII rows: byte-level lowercasing, whitespace runs
    collapsed to one space and trimmed (the ASCII subset of
    ``normalize_text``), k-byte windows (docs shorter than k zero-padded
    to one window), and the same polynomial hash and finalizer as
    ``_shingle_hashes``. Null, non-ASCII and non-string rows bail to the
    per-doc ``_shingle_hashes`` and are merged back in doc order."""
    from georay.index import _ragged_ranges

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    elif not isinstance(texts, pa.Array):
        texts = pa.array(list(texts), pa.large_string())
    if not (pa.types.is_string(texts.type) or pa.types.is_large_string(texts.type)):
        per_doc = [_shingle_hashes(t, k) for t in texts.to_pylist()]
        counts = np.array([p.shape[0] for p in per_doc], dtype=np.int64)
        return np.concatenate([np.empty(0, np.uint64), *per_doc]), counts
    n = len(texts)
    lane = pc.fill_null(pc.string_is_ascii(texts), False).to_numpy(zero_copy_only=False)
    lane_rows = np.flatnonzero(lane)
    txt = texts.cast(pa.large_binary())
    offs = np.frombuffer(
        txt.buffers()[1], dtype=np.int64, count=txt.offset + n + 1
    )[txt.offset:]
    buf = np.frombuffer(txt.buffers()[2] or b"", dtype=np.uint8)
    lens = np.diff(offs)[lane_rows]
    owner, within = _ragged_ranges(lens)
    b = buf[offs[lane_rows][owner] + within]
    b = _ASCII_LOWER[b]
    ws = _ASCII_WS[b]
    ends = np.cumsum(lens)
    starts = ends - lens
    # collapse + trim: a whitespace byte survives (as one space) iff it
    # opens its run inside a doc and the next word starts in the same doc
    opens = ws.copy()
    opens[1:] &= ~ws[:-1]
    opens[starts[lens > 0]] = False
    at = np.flatnonzero(opens)
    word_starts = np.flatnonzero(~ws[1:] & ws[:-1]) + 1
    nxt = np.searchsorted(word_starts, at)
    ok = nxt < word_starts.shape[0]
    ok[ok] = word_starts[nxt[ok]] < ends[np.searchsorted(ends, at[ok], side="right")]
    opens[at[~ok]] = False
    keep = ~ws | opens
    norm = np.where(ws, np.uint8(32), b)[keep]
    kept = np.zeros(b.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    nlen = kept[ends] - kept[starts]
    short = (nlen > 0) & (nlen < k)
    if np.any(short):
        # zero-pad docs shorter than k to exactly one window
        plen = np.where(short, k, nlen)
        doc, within = _ragged_ranges(nlen)
        padded = np.zeros(int(plen.sum()), dtype=np.uint8)
        padded[(np.cumsum(plen) - plen)[doc] + within] = norm
        norm, nlen = padded, plen
    # polynomial hash of every k-byte window of the flat buffer (k slice
    # multiply-adds); the k-1 windows that run past each doc's end drop
    m = max(norm.shape[0] - k + 1, 0)
    x = norm.astype(np.uint64)
    powers = _POLY_BASE ** np.arange(k, dtype=np.uint64)
    h = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        h += x[j:j + m] * powers[j]
    inside = np.ones(m, dtype=bool)
    doc_end = np.cumsum(nlen)
    for j in range(1, k):
        cut = doc_end - j
        inside[cut[(nlen >= j) & (cut < m)]] = False
    h = h[inside]
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    counts = np.zeros(n, dtype=np.int64)
    counts[lane_rows] = np.maximum(nlen - k + 1, 0)
    if lane_rows.shape[0] == n:
        return h, counts
    bail = np.flatnonzero(~lane)
    per_doc = [_shingle_hashes(texts[int(i)].as_py(), k) for i in bail]
    counts[bail] = [p.shape[0] for p in per_doc]
    # a stable sort by doc index merges the two lanes in doc order
    docs = np.concatenate(
        [np.repeat(lane_rows, counts[lane_rows]), np.repeat(bail, counts[bail])]
    )
    merged = np.concatenate([h, *per_doc])
    return merged[np.argsort(docs, kind="stable")], counts


def _shingles_batch(texts, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """``_shingle_hashes`` for a whole text column: (hashes, counts), the
    sorted-unique uint64 shingle hashes of every doc back to back plus
    each doc's count (``_window_hashes`` + one sort dedup)."""
    return _sorted_unique_per_doc(*_window_hashes(texts, k))


assert N_HASHES & (N_HASHES - 1) == 0, "OPH binning needs power-of-two N_HASHES"
_BIN_SHIFT = np.uint64(64 - (N_HASHES.bit_length() - 1))


def minhash_signatures_batch(texts, k: int = 5) -> np.ndarray:
    """(n_docs, N_HASHES) signatures by densified ONE-permutation hashing
    (Li/Owen/Zhang OPH with circular borrowing): each shingle hash lands
    in the bin given by its top 6 bits, signature = min per bin, empty
    bins borrow the nearest filled bin to the left (circular). ONE pass
    over the shingle stream instead of N_HASHES permutations — the
    classic 64-permutation kernel was the profile's hotspot (≈24 s CPU
    per 5k docs). A deterministic function of the shingle SET: identical
    texts ⇒ identical signatures (the invariant every planted oracle and
    banding bucket relies on); bin-collision rate estimates Jaccard like
    plain minhash. Empty docs → all-max sentinel row.

    ``texts``: a sequence of str, an Arrow string column, or a
    ``(hashes, counts)`` pair of arrays as ``_window_hashes`` returns it (a min per
    bin, so repeats and order within a doc do not matter)."""
    pre_hashed = (
        isinstance(texts, tuple) and len(texts) == 2 and isinstance(texts[1], np.ndarray)
    )
    h, counts = texts if pre_hashed else _window_hashes(texts, k)
    n = counts.shape[0]
    maxv = np.iinfo(np.uint64).max
    sigs = np.full((n, N_HASHES), maxv, dtype=np.uint64)
    nz = counts > 0
    if not np.any(nz):
        return sigs
    # top bits → N_HASHES bins; one unbuffered min per (doc, bin) slot
    key = np.repeat(np.arange(n, dtype=np.int64) * N_HASHES, counts)
    key += (h >> _BIN_SHIFT).astype(np.int64)
    np.minimum.at(sigs.reshape(-1), key, h)
    # densify: circular forward fill of empty bins (rows with ≥1 filled)
    rows = np.flatnonzero(nz)
    m = sigs[rows]
    dbl = np.concatenate([m, m], axis=1)
    pos = np.where(dbl != maxv, np.arange(2 * N_HASHES)[None, :], -1)
    np.maximum.accumulate(pos, axis=1, out=pos)
    take = pos[:, N_HASHES:]
    sigs[rows] = dbl[np.arange(m.shape[0])[:, None], take]
    return sigs


def jaccard_shingles(a: str, b: str, k: int = 5) -> float:
    sa = set(np.asarray(_shingle_hashes(a, k)).tolist())
    sb = set(np.asarray(_shingle_hashes(b, k)).tolist())
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _band_hashes(sigs: np.ndarray) -> np.ndarray:
    """(n, N_BANDS) int64 LSH bucket hashes: each band's rows mixed into
    one 64-bit value (vectorized)."""
    rows_per = N_HASHES // N_BANDS
    bands = sigs.reshape(sigs.shape[0], N_BANDS, rows_per)
    bh = np.zeros((sigs.shape[0], N_BANDS), dtype=np.uint64)
    for r in range(rows_per):
        bh ^= bands[:, :, r] + np.uint64(0x9E3779B97F4A7C15)
        bh *= np.uint64(0xBF58476D1CE4E5B9)
        bh ^= bh >> np.uint64(31)
    return bh.view(np.int64)


def _sig_low_column(sigs: np.ndarray) -> pa.Array:
    """The low byte of every signature min as a
    ``fixed_size_binary(N_HASHES)`` column (64 B per doc). Equal mins
    have equal low bytes, so an estimate from these bytes is never below
    the full-signature estimate."""
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(N_HASHES), sigs.shape[0], [None, pa.py_buffer(sigs.astype(np.uint8).tobytes())]
    )


def _sig_low_bytes(col) -> np.ndarray:
    """(n, N_HASHES) uint8 view of a ``_sig_low_column`` column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    raw = np.frombuffer(col.buffers()[1], dtype=np.uint8)
    return raw[col.offset * N_HASHES:(col.offset + len(col)) * N_HASHES].reshape(-1, N_HASHES)


def _set_jaccard(h: np.ndarray, counts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Jaccard of the shingle sets of docs ``a[i]`` and ``b[i]``,
    vectorized over pairs. ``h``/``counts`` hold each doc's sorted-unique
    hashes back to back; per pair both sets are laid side by side and
    deduped, so |a ∪ b| is the pair's unique count and |a ∩ b| the rest.
    Both empty → 1.0, one empty → 0.0."""
    from georay.index import _ragged_ranges

    starts = np.cumsum(counts) - counts
    na, nb = counts[a], counts[b]
    pair, within = _ragged_ranges(na + nb)
    in_a = within < na[pair]
    src = np.where(in_a, starts[a][pair], starts[b][pair] - na[pair]) + within
    _, union = _sorted_unique_per_doc(h[src], na + nb)
    inter = na + nb - union
    jac = np.ones(a.shape[0], dtype=np.float64)
    np.divide(inter, union, out=jac, where=union > 0)
    return jac


def _verified_band_pairs(
    group: pa.Table, text_col: str, id_col: str, k: int, threshold: float
) -> pa.Table:
    """Verified near-duplicate pairs of ONE band: sort rows by (bucket
    hash, id), pair each bucket member with the next W = 50 members
    (caps the O(m²) blowup of degenerate all-identical buckets at m·W
    pairs while still chaining every member into one component), drop
    pairs whose 64-hash MinHash estimate is below ``threshold`` − 3σ
    (σ = √(j(1−j)/64) ≈ 0.06), and keep those whose exact shingle
    Jaccard is ≥ ``threshold``. The estimate runs twice: first on the
    rows' low signature bytes (equal mins have equal low bytes, so it
    keeps a superset of the pairs), then on full signatures re-signed
    from the texts of only the docs in surviving pairs. Each row is
    verified against its own text, so a duplicated doc id never stands
    in for another copy."""
    from georay.index import _ragged_ranges

    empty = pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    ids = group[id_col].to_numpy(zero_copy_only=False)
    hs = group["band_hash"].to_numpy(zero_copy_only=False)
    if ids.shape[0] < 2:
        return empty
    order = np.lexsort((ids, hs))
    hs_s, ids_s = hs[order], ids[order]
    new = np.ones(hs_s.shape[0], dtype=bool)
    new[1:] = hs_s[1:] != hs_s[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, hs_s.shape[0]))
    a_parts, b_parts = [], []
    for w in range(1, 51):
        # pair element i with element i+w within each bucket
        elig = sizes > w
        if not np.any(elig):
            break
        cnts = sizes[elig] - w
        _, within = _ragged_ranges(cnts)
        base = np.repeat(starts[elig], cnts) + within
        a_parts.append(base)
        b_parts.append(base + w)
    if not a_parts:
        return empty
    pos_a, pos_b = np.concatenate(a_parts), np.concatenate(b_parts)
    est_floor = threshold - 0.18
    if est_floor > 0:
        low = _sig_low_bytes(group["sig_low"])[order]
        ok = (low[pos_a] == low[pos_b]).mean(axis=1) >= est_floor
        pos_a, pos_b = pos_a[ok], pos_b[ok]
        if pos_a.shape[0] == 0:
            return empty
    # shingle only the docs some surviving pair needs
    needed = np.zeros(order.shape[0], dtype=bool)
    needed[pos_a] = needed[pos_b] = True
    compact = np.cumsum(needed) - 1
    ca, cb = compact[pos_a], compact[pos_b]
    h, counts = _window_hashes(group[text_col].take(pa.array(order[needed])), k)
    if est_floor > 0:
        sigs = minhash_signatures_batch((h, counts), k)
        ok = (sigs[ca] == sigs[cb]).mean(axis=1) >= est_floor
        pos_a, pos_b, ca, cb = pos_a[ok], pos_b[ok], ca[ok], cb[ok]
    # exact sets of only the docs some pair still needs
    used = np.zeros(counts.shape[0], dtype=bool)
    used[ca] = used[cb] = True
    h, counts = _sorted_unique_per_doc(h, counts, used)
    keep = _set_jaccard(h, counts, ca, cb) >= threshold
    a, b = ids_s[pos_a[keep]], ids_s[pos_b[keep]]
    return pa.table(
        {
            "id_a": pa.array(np.minimum(a, b), pa.int64()),
            "id_b": pa.array(np.maximum(a, b), pa.int64()),
        }
    )


def verify_pairs_distributed(
    ds: ray.data.Dataset,
    pairs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    shingle_k: int = 5,
    strategy: str = "broadcast",
) -> ray.data.Dataset:
    """Exact-Jaccard verification of an arbitrary candidate (id_a, id_b)
    pair list against the corpus, with NO driver materialization of
    TEXTS (``minhash_dedup`` verifies inside its band exchange instead).
    Two physical plans:

    - ``broadcast`` (default): the deduped pair list — the SMALL side,
      proportional to the near-duplicate count, never the corpus — is
      collected and ``exchange.broadcast`` once; the corpus streams through one
      map_batches that emits each referenced doc's shingle set keyed by
      pair slot, and one tiny groupby over 2·n_pairs rows computes the
      exact Jaccard. One shuffle of shingle sets of REFERENCED docs only.
      Partitioning assumption: the (id_a, id_b) list fits the object
      store (W-cap bounds it at W rows per corpus doc; in practice
      ~duplicate-rate × corpus).
    - ``shuffle``: two distributed hash joins attach text_a then text_b
      (no driver collection of any side) — the unbounded-pairs fallback.

    Returns the verified pairs (id_a, id_b, jaccard ≥ threshold).
    """
    if strategy == "broadcast":
        return _verify_pairs_broadcast(ds, pairs, text_col, id_col, threshold, shingle_k)
    return _verify_pairs_shuffle(ds, pairs, text_col, id_col, threshold, shingle_k)


def _verify_pairs_broadcast(
    ds: ray.data.Dataset,
    pairs: ray.data.Dataset,
    text_col: str,
    id_col: str,
    threshold: float,
    shingle_k: int,
) -> ray.data.Dataset:
    # dedup the (one row per shared band) candidates on the driver — the
    # small side by design (cf. PolygonIndex in joins.pip_join)
    pt = pairs.select_columns(["id_a", "id_b"]).to_pandas()
    pt = pt.drop_duplicates(["id_a", "id_b"])
    pair_a = pt["id_a"].to_numpy().astype(np.int64)
    pair_b = pt["id_b"].to_numpy().astype(np.int64)
    n_pairs = pair_a.shape[0]
    # CSR: referenced doc id -> its (pair_slot, side) mentions
    mention_ids = np.concatenate([pair_a, pair_b])
    slots = np.concatenate(
        [np.arange(n_pairs, dtype=np.int64), np.arange(n_pairs, dtype=np.int64)]
    )
    sides = np.concatenate(
        [np.zeros(n_pairs, dtype=np.int64), np.ones(n_pairs, dtype=np.int64)]
    )
    order = np.argsort(mention_ids, kind="stable")
    m_sorted = mention_ids[order]
    uniq_ids, first = np.unique(m_sorted, return_index=True)
    csr_ends = np.append(first[1:], m_sorted.shape[0])
    ref = exchange.broadcast((uniq_ids, first, csr_ends, slots[order], sides[order]))

    def emit_sides(batch: pa.Table) -> pa.Table:
        uids, starts, ends, slot_arr, side_arr = ref.get()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(uids, ids)
        pos_c = np.clip(pos, 0, max(uids.shape[0] - 1, 0))
        hit = np.zeros(ids.shape[0], dtype=bool) if uids.shape[0] == 0 else uids[pos_c] == ids
        out_slot, out_side, out_sh = [], [], []
        texts = None
        for r in np.flatnonzero(hit):
            if texts is None:
                texts = batch[text_col].to_pylist()
            sh = _shingle_hashes(texts[r], shingle_k)
            for t in range(starts[pos_c[r]], ends[pos_c[r]]):
                out_slot.append(slot_arr[t])
                out_side.append(side_arr[t])
                out_sh.append(sh)
        slots = np.asarray(out_slot, dtype=np.int64)
        return pa.table(
            {
                "slot": pa.array(slots),
                # coarse shuffle key: ONE map_groups invocation per
                # partition (64 total), not one per pair
                "part": pa.array(slots % np.int64(64)),
                "side": pa.array(np.asarray(out_side, dtype=np.int64)),
                "shingles": pa.array(
                    [s.view(np.int64) for s in out_sh], pa.list_(pa.int64())
                ),
            }
        )

    sides_ds = ds.select_columns([id_col, text_col]).map_batches(
        emit_sides, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def verify_part(group: pa.Table) -> pa.Table:
        """All pairs of one slot-partition: sort rows by slot, then pair
        the first side-0 row with the first side-1 row of each slot and
        numpy set-intersect per pair. A corpus with DUPLICATED doc ids
        emits >1 row per (slot, side); pairing strictly across sides
        means we never compare two copies of the same doc and label it
        the cross pair (which copy represents a duplicated id is
        arrival-order-dependent — inherent when ids are not unique)."""
        slot = group["slot"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        sh = group["shingles"].to_pylist()
        order = np.lexsort((side, slot))
        ia, ib, jac = [], [], []
        i = 0
        n = order.shape[0]
        while i < n:
            s_val = slot[order[i]]
            g_end = i
            while g_end < n and slot[order[g_end]] == s_val:
                g_end += 1
            rows = order[i:g_end]
            i = g_end
            r0 = r1 = -1
            for r in rows:
                if side[r] == 0:
                    if r0 < 0:
                        r0 = r
                elif r1 < 0:
                    r1 = r
            if r0 < 0 or r1 < 0:
                continue  # orphan side (doc missing) — drop
            sa = np.asarray(sh[r0], dtype=np.int64)
            sb = np.asarray(sh[r1], dtype=np.int64)
            if sa.size == 0 and sb.size == 0:
                j = 1.0
            elif sa.size == 0 or sb.size == 0:
                j = 0.0
            else:
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                j = inter / (sa.size + sb.size - inter)
            if j >= threshold:
                s = int(s_val)
                ia.append(int(pair_a[s]))
                ib.append(int(pair_b[s]))
                jac.append(j)
        return pa.table(
            {
                "id_a": pa.array(np.asarray(ia, dtype=np.int64)),
                "id_b": pa.array(np.asarray(ib, dtype=np.int64)),
                "jaccard": pa.array(np.asarray(jac, dtype=np.float64)),
            }
        )

    return co_shuffle(sides_ds, "part", verify_part, coalesce=False)


def _verify_pairs_shuffle(
    ds: ray.data.Dataset,
    pairs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    shingle_k: int = 5,
) -> ray.data.Dataset:
    from georay import ops

    # dedup candidates without a sort shuffle (combine-tree count)
    pairs = ops.salted_count(pairs, ["id_a", "id_b"], count_alias="_nb").materialize()
    n_join_parts = 8
    # Ray's hash-join aggregator loses the schema of a partition that
    # receives NO left-side shard (pyarrow ArrowInvalid on the key
    # FieldRef). A pair set too sparse to populate every partition is
    # exactly the case the broadcast plan exists for — route it there;
    # the joins below are the DENSE-pairs plan.
    if pairs.count() < n_join_parts * 32:
        return _verify_pairs_broadcast(ds, pairs, text_col, id_col, threshold, shingle_k)

    def docs_as(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    f"id_{side}": batch[id_col].cast(pa.int64()),
                    f"text_{side}": batch[text_col].cast(pa.string()),
                }
            )

        return ds.select_columns([id_col, text_col]).map_batches(
            fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )

    with_a = pairs.join(
        docs_as("a"), join_type="inner", num_partitions=n_join_parts, on=("id_a",)
    )
    with_ab = with_a.join(
        docs_as("b"), join_type="inner", num_partitions=n_join_parts, on=("id_b",)
    )

    def verify(batch: pa.Table) -> pa.Table:
        ia = batch["id_a"].to_numpy(zero_copy_only=False)
        ib = batch["id_b"].to_numpy(zero_copy_only=False)
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        # shingle sets cached per doc id within the batch (texts repeat
        # across that doc's pairs)
        cache: dict = {}

        def sh(i, t):
            s = cache.get(i)
            if s is None:
                s = set(_shingle_hashes(t, shingle_k).tolist())
                cache[i] = s
            return s

        jac = np.empty(len(ia), dtype=np.float64)
        for r in range(len(ia)):
            sa, sb = sh(int(ia[r]), ta[r]), sh(int(ib[r]), tb[r])
            if not sa and not sb:
                jac[r] = 1.0
            elif not sa or not sb:
                jac[r] = 0.0
            else:
                jac[r] = len(sa & sb) / len(sa | sb)
        keep = jac >= threshold
        return pa.table(
            {
                "id_a": pa.array(ia[keep], pa.int64()),
                "id_b": pa.array(ib[keep], pa.int64()),
                "jaccard": pa.array(jac[keep]),
            }
        )

    return with_ab.map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def minhash_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    shingle_k: int = 5,
) -> ray.data.Dataset:
    """Full near-dup pipeline → Dataset (doc_id, cluster_id, is_dup).

    Two Ray Data executions over one sort exchange:

    1. map: per batch, shingle the text column in one flat-buffer pass,
       sign it (OPH) and explode every doc into N_BANDS
       (band, band_hash, id, sig_low, text) rows — band keys, the low
       byte of each signature min (64 B) and the doc's own text;
    2. ``groupby("band")`` reducer, over the band rows merged to one
       block per CPU (``coalesce=True``): bucket the band's rows, pair bucket
       members (adjacent-W), drop pairs below the estimate floor on the
       low bytes, re-shingle and sign only the docs of surviving pairs,
       apply the same floor on full signatures and verify exact Jaccard
       in place (``_verified_band_pairs``) — a pair found in several
       bands is emitted once per band;
    3. connected components over the verified pairs (min-label
       propagation, ``georay.stages.components``; duplicate edges are
       harmless), whose edge list is the first execution's output;
    4. assign: the (node → component label) map of the verified-duplicate
       nodes — the broadcast small side, proportional to the number of
       duplicates, never the corpus — is shipped once via ``exchange.broadcast`` and
       joined back to the id column per batch (the second execution).

    cluster_id = min doc id in the connected component of verified pairs
    (Jaccard ≥ threshold); is_dup marks non-representative members.
    """
    from georay.stages.components import connected_components

    def band_rows(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if pa.types.is_string(txt.type):
            txt = txt.cast(pa.large_string())  # 16× take stays in int64 offsets
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(batch)
        sigs = minhash_signatures_batch(txt, shingle_k)
        rep = pa.array(np.repeat(np.arange(n), N_BANDS))
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int64), n)),
                "band_hash": pa.array(_band_hashes(sigs).reshape(-1)),
                id_col: pa.array(np.repeat(ids, N_BANDS)),
                "sig_low": _sig_low_column(sigs).take(rep),
                text_col: txt.take(rep),
            }
        )

    pairs = co_shuffle(
        ds.select_columns([id_col, text_col])
        .map_batches(band_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        "band",
        lambda g: _verified_band_pairs(g, text_col, id_col, shingle_k, threshold),
        coalesce=True,
    )
    labels = connected_components(pairs)
    nodes = labels["node"].to_numpy(zero_copy_only=False)
    labs = labels["label"].to_numpy(zero_copy_only=False)
    label_ref = exchange.broadcast((nodes, labs))

    def assign(batch: pa.Table) -> pa.Table:
        n_sorted, l_sorted = label_ref.get()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cluster = ids.copy()
        if n_sorted.size:
            pos = np.searchsorted(n_sorted, ids)
            pos_c = np.clip(pos, 0, n_sorted.size - 1)
            hit = n_sorted[pos_c] == ids
            cluster[hit] = l_sorted[pos_c[hit]]
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "cluster_id": pa.array(cluster, pa.int64()),
                "is_dup": pa.array(cluster != ids),
            }
        )

    return ds.select_columns([id_col]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


# ----------------------------------------------------------------- simhash

# powers of the polynomial base mod 2^64 (python-int math avoids numpy's
# scalar-overflow warning; the wrap IS the hash's modulus)
_POW_TABLE = np.empty(4096, dtype=np.uint64)
_p = 1
for _i in range(4096):
    _POW_TABLE[_i] = _p
    _p = (_p * int(_POLY_BASE)) & ((1 << 64) - 1)
del _p


def _hash_token_stream(data: bytes, starts: np.ndarray) -> np.ndarray:
    """64-bit polynomial hash of each '\\0'-separated token in ``data``
    (one vectorized pass over the whole byte blob; the separator byte is
    0 so its term vanishes). ``starts`` = byte offset of each token."""
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    n = arr.shape[0]
    within = np.arange(n, dtype=np.int64) - np.repeat(
        starts, np.diff(np.append(starts, n))
    )
    h = np.add.reduceat(arr * _POW_TABLE[np.minimum(within, 4095)], starts)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return h


def simhash64_batch(texts: list) -> np.ndarray:
    """(n,) int64 SimHash signatures for a whole batch — tokenization is
    the only per-doc Python; token hashing and the per-doc bit histograms
    are single vectorized passes (polynomial token hash over one joined
    byte blob, reduceat per doc)."""
    toks_per_doc = [normalize_text(t or "").split() for t in texts]
    counts = np.array([len(ts) for ts in toks_per_doc], dtype=np.int64)
    n_docs = len(texts)
    out = np.zeros(n_docs, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return out
    all_tokens = [tok for ts in toks_per_doc for tok in ts]
    data = "\x00".join(all_tokens).encode("utf-8") + b"\x00"
    blob = np.frombuffer(data, dtype=np.uint8)
    seps = np.nonzero(blob == 0)[0]
    starts = np.concatenate([[0], seps[:-1] + 1]).astype(np.int64)
    h = _hash_token_stream(data, starts)  # (total,) one hash per token
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8)
    doc_starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    nz = counts > 0
    sums = np.add.reduceat(bits, doc_starts[nz], axis=0).astype(np.int64)
    # bit set iff strictly more 1s than 0s among the doc's tokens
    bitvec = (2 * sums > counts[nz, None]).astype(np.uint64)
    packed = (bitvec << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    out[nz] = packed.view(np.int64)
    return out


def add_simhash(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        hs = simhash64_batch(batch[text_col].to_pylist())
        return batch.append_column("simhash", pa.array(hs, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (numpy<2 has no bitwise_count)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def simhash_candidates(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 8,
) -> ray.data.Dataset:
    """Near-dup pairs: equal 16-bit SimHash band (pigeonhole guarantee
    for Hamming ≤ 3) AND exact Hamming ≤ ``max_hamming`` — verification
    is a vectorized popcount over the banded candidates."""
    sh = add_simhash(ds, text_col)
    return hash64_band_candidates(sh, "simhash", id_col, max_hamming)


def hash64_band_candidates(
    ds: ray.data.Dataset,
    hash_col: str,
    id_col: str = "doc_id",
    max_hamming: int = 8,
) -> ray.data.Dataset:
    """(id_a, id_b, hamming) near-dup pairs for ANY 64-bit hash column
    (SimHash over text, perceptual hash over image pixels, …): equal
    16-bit band → candidate bucket, exact popcount Hamming ≤
    ``max_hamming`` verifies. Buckets are content-major sorted (hash
    before id), so identical hashes are ADJACENT and an exact duplicate
    always yields its direct Hamming-0 pair under the W cap."""

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = batch[hash_col].to_numpy(zero_copy_only=False).view(np.uint64)
        bands = []
        bvals = []
        oids = []
        for b in range(4):
            bands.append(np.full(len(ids), b, dtype=np.int64))
            bvals.append(((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64))
            oids.append(ids)
        return pa.table(
            {
                "band": pa.array(np.concatenate(bands)),
                "band_val": pa.array(np.concatenate(bvals)),
                id_col: pa.array(np.concatenate(oids)),
                "hash64": pa.array(np.tile(batch[hash_col].to_numpy(zero_copy_only=False), 4)),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def pairs_of_band(group: pa.Table) -> pa.Table:
        """One band's candidates, vectorized: sort by bucket value,
        adjacent-W pairing within buckets, popcount Hamming filter."""
        from georay.index import _ragged_ranges

        ids = group[id_col].to_numpy(zero_copy_only=False)
        bv = group["band_val"].to_numpy(zero_copy_only=False)
        hs = group["hash64"].to_numpy(zero_copy_only=False)
        # content-major within the bucket: identical hashes adjacent
        order = np.lexsort((ids, hs, bv))
        bv_s, ids_s, hs_s = bv[order], ids[order], hs[order]
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        )
        if ids_s.shape[0] < 2:
            return empty
        new = np.ones(bv_s.shape[0], dtype=bool)
        new[1:] = bv_s[1:] != bv_s[:-1]
        starts = np.nonzero(new)[0]
        sizes = np.diff(np.append(starts, bv_s.shape[0]))
        a_parts, b_parts, h_parts = [], [], []
        for w in range(1, 51):
            elig = sizes > w
            if not np.any(elig):
                break
            cnts = sizes[elig] - w
            owner, within = _ragged_ranges(cnts)
            base = np.repeat(starts[elig], cnts) + within
            ham = _popcount64(
                hs_s[base].view(np.uint64) ^ hs_s[base + w].view(np.uint64)
            )
            keep = ham <= max_hamming
            a_parts.append(ids_s[base[keep]])
            b_parts.append(ids_s[base[keep] + w])
            h_parts.append(ham[keep])
        if not a_parts:
            return empty
        a = np.concatenate(a_parts)
        b = np.concatenate(b_parts)
        h = np.concatenate(h_parts)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return pa.table(
            {
                "id_a": pa.array(lo, pa.int64()),
                "id_b": pa.array(hi, pa.int64()),
                "hamming": pa.array(h, pa.int64()),
            }
        )

    pairs = co_shuffle(exploded, "band", pairs_of_band, coalesce=False)
    # cross-band duplicates of a pair carry the IDENTICAL exact Hamming
    # (popcount of the same two hashes), so a distributed min-aggregate IS
    # the dedup — the pair stream never lands on the driver (combine tree;
    # distinct pairs are the bounded near-dup set)
    from georay import ops

    return ops.tree_reduce(
        pairs, ["id_a", "id_b"], {"hamming": "hamming"}, ufunc=np.minimum
    )


# ------------------------------------------------- exact substring spans

def doc_duplicate_spans(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    width: int = 40,
    stride: int = 20,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Exact substring-duplication signal — the grid-quantized core of
    suffix-array training-data dedup (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): per document, its
    number of sampled character windows (``width`` chars every
    ``stride``) and how many of those windows occur byte-identical
    ANYWHERE else in the corpus (other docs or other positions). A
    duplicated span of length ≥ width+stride-1 always covers at least
    one sampled window on each copy, so boilerplate/licence blocks and
    copy-paste spans are caught without materializing a suffix array.

    Scale shape: one row-expanding ``map_batches`` (flat-buffer gather,
    ~width/stride × bytes out), ONE groupby shuffle hash-bucketed by
    window content — global frequency is the in-group sorted-segment
    size, like ``doc_rare_bigrams`` — then per-doc partials merged by
    the combine tree. No join, nothing on the driver.

    Byte-based windows (== characters for ASCII corpora; multi-byte
    UTF-8 would need the utf8→offset map first). Output:
    ``(id_col, n_spans, n_dup)`` for every doc with ≥ 1 window
    (len(text) ≥ width)."""
    from georay.index import _ragged_ranges
    from georay.ops import _group_reduce, tree_sum

    if width <= 0 or stride <= 0:
        raise ValueError("width and stride must be positive")

    def to_windows(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = txt.cast(pa.large_binary())
        buf = np.frombuffer(txt.buffers()[2] or b"", dtype=np.uint8)
        offs = np.frombuffer(
            txt.buffers()[1], dtype=np.int64, count=txt.offset + len(txt) + 1
        )[txt.offset:]
        doc_start, doc_len = offs[:-1], np.diff(offs)
        n_win = np.maximum((doc_len - width) // stride + 1, 0)
        owner, idx = _ragged_ranges(n_win)
        w_start = doc_start[owner] + idx * stride
        m = w_start.shape[0]
        # fixed-width gather: (m, width) index grid in one vectorized op
        gathered = buf[w_start[:, None] + np.arange(width)[None, :]] \
            if m else np.zeros((0, width), np.uint8)
        out_offs = np.arange(m + 1, dtype=np.int64) * width
        grams = pa.LargeStringArray.from_buffers(
            m, pa.py_buffer(out_offs.tobytes()),
            pa.py_buffer(gathered.tobytes()),
        ).cast(pa.string())
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({id_col: ids.take(pa.array(owner)), "gram": grams})

    stream = ds.map_batches(
        to_windows, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[("gram", "ascending")])
        g = group.take(order)
        n = len(g)
        if n == 0:
            return pa.table(
                {id_col: g[id_col], "tot": pa.array([], pa.int64()),
                 "dup": pa.array([], pa.int64())}
            )
        gr = g["gram"].combine_chunks() if isinstance(
            g["gram"], pa.ChunkedArray) else g["gram"]
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = np.asarray(pc.not_equal(gr.slice(1), gr.slice(0, n - 1)))
        seg_id = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, n))
        dup_row = (sizes > 1)[seg_id]
        k = g[id_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce(
            [k],
            {"tot": np.ones(n, np.int64), "dup": dup_row.astype(np.int64)},
        )
        return pa.table(
            {id_col: pa.array(ks[0]), "tot": pa.array(vs["tot"]),
             "dup": pa.array(vs["dup"])}
        )

    parts = co_shuffle(stream, "gram", per_bucket, n_buckets=n_buckets, coalesce=True)
    return tree_sum(
        parts, id_col, {"tot": "n_spans", "dup": "n_dup"},
        int_cols=("tot", "dup"),
    )


# ---------------------------------------------------------- edit distance

def edit_distance_batch(a: pa.Array, b: pa.Array) -> np.ndarray:
    """(n,) int64 Levenshtein distances between aligned string arrays —
    VECTORIZED ACROSS PAIRS: one DP row per character of the longest b
    string, each row a few numpy ops over the (pairs × max_len_a)
    matrix. The insertion term's left-to-right dependency is folded
    into a min-plus prefix scan (``D[j][i] = i + min_{k≤i}(T[k] − k)``
    = ``minimum.accumulate``), so there is no per-pair Python.

    This is the exact-verify primitive for fuzzy dedup: run it on LSH /
    MinHash candidate pairs, never all-pairs. Byte-level distances
    (UTF-8 bytes, matching DuckDB ``levenshtein`` for ASCII corpora)."""
    a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
    b = b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b
    n = len(a)
    if n == 0:
        return np.zeros(0, np.int64)

    def padded(arr: pa.Array):
        lb = arr.cast(pa.large_binary())
        offs = np.frombuffer(lb.buffers()[1], dtype=np.int64, count=len(lb) + 1,
                             offset=lb.offset * 8)
        data = np.frombuffer(lb.buffers()[2], dtype=np.uint8)
        lens = (offs[1:] - offs[:-1]).astype(np.int64)
        m = int(lens.max()) if lens.shape[0] else 0
        out = np.zeros((len(lb), m), dtype=np.uint8)
        from georay.index import _ragged_ranges

        owner, within = _ragged_ranges(lens)
        out[owner, within] = data[
            np.repeat(offs[:-1], lens) + within
        ]
        return out, lens

    A, la = padded(a)
    B, lb_ = padded(b)
    max_a = A.shape[1]
    idx = np.arange(max_a + 1, dtype=np.int64)
    prev = np.broadcast_to(idx, (n, max_a + 1)).copy()
    ans = la.copy()  # pairs with len_b == 0
    max_b = B.shape[1]
    rows = np.arange(n)
    for j in range(1, max_b + 1):
        bj = B[:, j - 1][:, None]
        cost = (A != bj).astype(np.int64)
        T = np.empty_like(prev)
        T[:, 0] = j
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=T[:, 1:])
        cur = np.minimum.accumulate(T - idx, axis=1) + idx
        take = lb_ == j
        if take.any():
            ans[take] = cur[rows[take], la[take]]
        prev = cur
    return ans


def ngram_jaccard_pairs(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    scale_bits: int = 20,
    n_buckets: int = 64,
) -> "ray.data.Dataset":
    """Word n-gram SET Jaccard for deterministic doc pairs — the direct
    n-gram-Jaccard member of the near-dup family (exact / MinHash+LSH /
    SimHash / embedding): docs pair as (2k, 2k+1) by id, each doc's
    word n-grams (canonical tokenization, ' '-joined) form a SET, and
    the pair's similarity is the EXACT integer
    ``floor(|A∩B|·2^bits / |A∪B|)`` (both-empty ⇒ 2^bits).

    One bucket co-shuffle of (pair, side, ngram_hash64) int rows — the
    texts never shuffle; per-doc sentinel rows carry presence so
    n-gram-free docs still pair, and pairs missing a doc are dropped.
    Set elements are 64-bit n-gram hashes (collision odds ~|set|²/2⁶⁵
    per pair — far below the oracle's resolution).

    Output: (pair_id, jaccard_q int64)."""
    from georay import ops
    from georay.index import _ragged_ranges
    from georay.stages.text import _tokenize_flat

    shift = np.int64(scale_bits)

    def explode(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        toks, counts = _tokenize_flat(txt)
        m = len(toks)
        owner, _ = _ragged_ranges(counts)
        parts_pair: list[np.ndarray] = []
        parts_side: list[np.ndarray] = []
        parts_hash: list[np.ndarray] = []
        if m >= n:
            ln = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
            w = m - (n - 1)
            valid = np.ones(w, dtype=bool)
            for j in range(n):
                valid &= ln[j : w + j] > 0
            # all n tokens must belong to one doc (owners ascend, so
            # first == last suffices)
            valid &= owner[n - 1 :] == owner[:w]
            if np.any(valid):
                pieces = [toks.slice(j, m - (n - 1)) for j in range(n)]
                mask = pa.array(valid)
                joined = pc.binary_join_element_wise(
                    *[p.filter(mask) for p in pieces], " "
                )
                h = ops._bytes_hash(joined).view(np.int64)
                own = owner[: m - (n - 1)][valid]
                # per-doc set: unique (owner, hash)
                order = np.lexsort((h, own))
                ho, oo = h[order], own[order]
                first = np.ones(ho.shape[0], bool)
                first[1:] = (oo[1:] != oo[:-1]) | (ho[1:] != ho[:-1])
                ho, oo = ho[first], oo[first]
                did = ids[oo]
                parts_pair.append(did >> np.int64(1))
                parts_side.append((did & np.int64(1)).astype(np.int8))
                parts_hash.append(ho)
        # presence sentinels (one per doc; side+2 marks them — hash
        # values are full-range int64 so a hash-based marker would
        # swallow real n-grams)
        parts_pair.append(ids >> np.int64(1))
        parts_side.append(((ids & np.int64(1)) + 2).astype(np.int8))
        parts_hash.append(np.zeros(ids.shape[0], np.int64))
        pairs = np.concatenate(parts_pair)
        return pa.table(
            {
                "pair": pa.array(pairs, pa.int64()),
                "side": pa.array(np.concatenate(parts_side), pa.int8()),
                "h": pa.array(np.concatenate(parts_hash), pa.int64()),
                "_b": pa.array(
                    (
                        ops._mix64(pairs.view(np.uint64).copy())
                        % np.uint64(n_buckets)
                    ).astype(np.int64)
                ),
            }
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        pair = group["pair"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = group["h"].to_numpy(zero_copy_only=False)
        if pair.shape[0] == 0:
            return pa.table(
                {"pair_id": pa.array([], pa.int64()),
                 "jaccard_q": pa.array([], pa.int64())}
            )
        sent = side >= 2
        # pair completeness from sentinels
        sp, ss = pair[sent], side[sent] - 2
        po = np.lexsort((ss, sp))
        sp, ss = sp[po], ss[po]
        pf = np.ones(sp.shape[0], bool)
        pf[1:] = sp[1:] != sp[:-1]
        pseg = np.cumsum(pf) - 1
        have0 = np.bincount(pseg, weights=(ss == 0)) > 0
        have1 = np.bincount(pseg, weights=(ss == 1)) > 0
        p_ids = sp[pf]
        complete = p_ids[have0 & have1]
        # set arithmetic over real rows
        rp, rh = pair[~sent], h[~sent]
        ro = np.lexsort((rh, rp))
        rp, rh = rp[ro], rh[ro]
        rf = np.ones(rp.shape[0], bool)
        rf[1:] = (rp[1:] != rp[:-1]) | (rh[1:] != rh[:-1])
        # an ngram present in both sides appears twice per (pair, hash)
        seg_ids = np.cumsum(rf) - 1
        dup = ~rf
        uniq_pair = rp[rf]
        up, ui = np.unique(uniq_pair, return_inverse=True)
        union = np.bincount(ui, minlength=up.shape[0])
        inter = np.bincount(ui[seg_ids[dup]], minlength=up.shape[0]) if dup.any() else np.zeros(up.shape[0], np.int64)
        jpos = np.searchsorted(up, complete)
        hasng = (jpos < up.shape[0])
        jq = np.full(complete.shape[0], np.int64(1) << shift)
        hit = hasng & (np.where(hasng, up[np.minimum(jpos, max(up.shape[0] - 1, 0))], -1) == complete)
        u = union[jpos[hit]]
        i = inter[jpos[hit]].astype(np.int64)
        jq[hit] = (i << shift) // np.maximum(u, 1)
        return pa.table(
            {"pair_id": pa.array(complete, pa.int64()),
             "jaccard_q": pa.array(jq, pa.int64())}
        )

    stream = ds.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return co_shuffle(stream, "_b", per_bucket, coalesce=True)
