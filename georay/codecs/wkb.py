"""ISO WKB codec: binary arrays ↔ GeoArrow-native arrays.

Semantics pinned to the reference:
- both byte orders on read (byte-swap when first byte != 0x01,
  /root/reference/src/geoarrow.c:4508, 4525, 4631)
- little-endian on write with ISO codes ``(dims-1)*1000 + geometry_type``
  (/root/reference/src/geoarrow.c:4770-4995, native endian at 4776)
- POINT EMPTY ⇔ all-NaN coordinates (the only ISO-WKB representation)
- empty LINESTRING/POLYGON/MULTI* ⇔ zero element count

The decoder parses each feature into a tiny geometry-node tree (the
columnar analogue of the reference's GeoArrowGeometry scalar tree,
src/geoarrow.c:3162-3745) and a builder assembles target-typed native
arrays; an all-POINT fast path decodes whole batches with one
``np.frombuffer``.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from georay.codecs import native
from georay.kernels import infer_type_from_codes
from georay.types import CoordType, Dimensions, GeometryType, GeoType

_NDIM = {0: 2, 1: 3, 2: 3, 3: 4}  # wkb dims-code → coord count
_DIMS_ENUM = {0: Dimensions.XY, 1: Dimensions.XYZ, 2: Dimensions.XYM, 3: Dimensions.XYZM}
_DIMCODE_OF = {Dimensions.XY: 0, Dimensions.XYZ: 1, Dimensions.XYM: 2, Dimensions.XYZM: 3}


class Node:
    __slots__ = ("geom", "dims", "coords", "children", "rings")

    def __init__(self, geom, dims, coords=None, children=None, rings=None):
        self.geom = geom  # GeometryType
        self.dims = dims  # Dimensions
        self.coords = coords  # (n, ndim) for point/linestring
        self.children = children  # list[Node] for multi/collection
        self.rings = rings  # list[(n, ndim)] for polygon


# ------------------------------------------------------------------ parse

def _parse(buf: memoryview, pos: int) -> tuple[Node, int]:
    order = buf[pos]
    fmt_u32 = "<I" if order == 1 else ">I"
    fmt_f8 = "<f8" if order == 1 else ">f8"
    (code,) = struct.unpack_from(fmt_u32, buf, pos + 1)
    pos += 5
    # EWKB high bits (reference accepts ISO *or* EWKB — geoarrow.h:1424,
    # flag handling src/geoarrow.c:4573-4589): Z/M flags, embedded SRID
    # read-and-ignored ("hard to work around if a user somehow has
    # embedded srid but still wants the data").
    has_z = bool(code & 0x80000000)
    has_m = bool(code & 0x40000000)
    if code & 0x20000000:
        pos += 4  # skip SRID
    code &= 0xFFFF
    # ISO X000 thousands (composable with EWKB flags, as the reference)
    if code >= 3000:
        code -= 3000
        has_z = has_m = True
    elif code >= 2000:
        code -= 2000
        has_m = True
    elif code >= 1000:
        code -= 1000
        has_z = True
    geom = GeometryType(code)
    dimcode = (2 if has_m else 0) + (1 if has_z else 0)
    ndim = _NDIM[dimcode]
    dims = _DIMS_ENUM[dimcode]
    if geom == GeometryType.POINT:
        c = np.frombuffer(buf, dtype=fmt_f8, count=ndim, offset=pos).astype(np.float64)
        return Node(geom, dims, coords=c.reshape(1, ndim)), pos + 8 * ndim
    if geom == GeometryType.LINESTRING:
        (n,) = struct.unpack_from(fmt_u32, buf, pos)
        pos += 4
        c = np.frombuffer(buf, dtype=fmt_f8, count=n * ndim, offset=pos).astype(np.float64)
        return Node(geom, dims, coords=c.reshape(n, ndim)), pos + 8 * ndim * n
    if geom == GeometryType.POLYGON:
        (nr,) = struct.unpack_from(fmt_u32, buf, pos)
        pos += 4
        rings = []
        for _ in range(nr):
            (n,) = struct.unpack_from(fmt_u32, buf, pos)
            pos += 4
            c = np.frombuffer(buf, dtype=fmt_f8, count=n * ndim, offset=pos).astype(np.float64)
            rings.append(c.reshape(n, ndim))
            pos += 8 * ndim * n
        return Node(geom, dims, rings=rings), pos
    if geom in (
        GeometryType.MULTIPOINT,
        GeometryType.MULTILINESTRING,
        GeometryType.MULTIPOLYGON,
        GeometryType.GEOMETRYCOLLECTION,
    ):
        (n,) = struct.unpack_from(fmt_u32, buf, pos)
        pos += 4
        children = []
        for _ in range(n):
            child, pos = _parse(buf, pos)
            children.append(child)
        return Node(geom, dims, children=children), pos
    raise ValueError(f"unsupported WKB geometry type {geom}")


def parse_feature(data: bytes) -> Node:
    node, pos = _parse(memoryview(data), 0)
    if pos != len(data):
        raise ValueError(f"trailing {len(data) - pos} bytes after WKB geometry")
    return node


def _node_first_coords(node: Node) -> bool:
    """Does the feature own ≥1 coordinate? (EMPTY exclusion for the
    unique-types kernel; native POINT NaNs still count, matching
    src/geoarrow.c:1616-1628 — but WKB POINT EMPTY *is* all-NaN and the
    reference's WKB reader emits its coord, so it counts as POINT.)"""
    if node.coords is not None:
        return node.coords.shape[0] > 0
    if node.rings is not None:
        return any(r.shape[0] > 0 for r in node.rings)
    return any(_node_first_coords(c) for c in node.children)


def _binary_values(arr: pa.Array):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr


def _buffer_views(arr: pa.Array):
    """(offsets int64, values uint8, valid bool|None) raw views of a
    plain/large binary array."""
    arr = _binary_values(arr)
    if pa.types.is_large_binary(arr.type):
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    else:
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int32).astype(np.int64)
    offs = offs[arr.offset : arr.offset + len(arr) + 1]
    buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    valid = None
    if arr.null_count > 0:
        valid = arr.is_valid().to_numpy(zero_copy_only=False)
    return offs, buf, valid


def _u32_at(buf: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Vectorized little-endian uint32 gather at byte positions."""
    return (
        buf[pos].astype(np.uint32)
        | (buf[pos + 1].astype(np.uint32) << 8)
        | (buf[pos + 2].astype(np.uint32) << 16)
        | (buf[pos + 3].astype(np.uint32) << 24)
    )


def validate(arr) -> int:
    """Structural validation of a WKB batch (visit_void_agg semantics:
    full structural walk, raise on malformed, src/geoarrow.c:1528-1540).

    Vectorized fast lane: when every non-null feature is little-endian
    with one shared geometry code whose length arithmetic is closed-form
    (POINT / LINESTRING / MULTIPOINT-of-points / POLYGON), lengths and
    element counts are checked with numpy over the raw offsets+values
    buffers — no per-feature parse. Mixed, big-endian, or nested
    collection batches fall back to the exact per-feature parser.

    Returns the count of valid (non-null) features.
    """
    arr = _binary_values(arr)
    offs, buf, valid = _buffer_views(arr)
    n = len(arr)
    if n == 0:
        return 0
    lens = np.diff(offs)
    live = np.ones(n, dtype=bool) if valid is None else valid.copy()
    n_valid = int(live.sum())
    if n_valid == 0:
        return 0
    starts = offs[:-1][live]
    flens = lens[live]
    if np.any(flens < 5):
        raise ValueError("WKB feature shorter than its header")
    le = buf[starts] == 1
    codes = _u32_at(buf, starts + 1)
    if bool(np.all(le)) and codes.min() == codes.max():
        code = int(codes[0])
        geom = code % 1000
        ndim = {0: 2, 1: 3, 2: 3, 3: 4}.get(code // 1000, -1)
        if ndim > 0:
            sz = 8 * ndim
            if geom == 1:  # POINT: fixed length
                if np.all(flens == 5 + sz):
                    return n_valid
            elif geom == 2:  # LINESTRING: 9 + n*sz
                cnt = _u32_at(buf, starts + 5).astype(np.int64)
                if np.all(flens == 9 + cnt * sz):
                    return n_valid
            elif geom == 4:  # MULTIPOINT of child points: 9 + n*(5+sz)
                cnt = _u32_at(buf, starts + 5).astype(np.int64)
                if np.all(flens == 9 + cnt * (5 + sz)):
                    # check EVERY child header (ragged expansion)
                    from georay.index import _ragged_ranges

                    owner, within = _ragged_ranges(cnt)
                    cpos = np.repeat(starts, cnt) + 9 + within * (5 + sz)
                    if np.all(buf[cpos] == 1) and np.all(
                        _u32_at(buf, cpos + 1) == code - 3
                    ):
                        return n_valid
            elif geom == 3:  # POLYGON: iterate rings in lockstep
                nrings = _u32_at(buf, starts + 5).astype(np.int64)
                pos = starts + 9
                remaining = nrings.copy()
                ends = starts + flens
                ok = True
                while True:
                    act = remaining > 0
                    if not np.any(act):
                        break
                    if np.any(pos[act] + 4 > ends[act]):
                        ok = False
                        break
                    rc = _u32_at(buf, pos[act]).astype(np.int64)
                    pos[act] += 4 + rc * sz
                    remaining[act] -= 1
                if ok and np.all(pos == ends):
                    return n_valid
    # exact fallback: full per-feature parse (raises on malformed)
    for v in arr:
        if v.is_valid:
            parse_feature(v.as_py())
    return n_valid


def unique_types_mask(arr) -> int:
    """Per-batch uint64 bitmask for unique_geometry_types_agg.

    Vectorized over the raw offsets+values buffers for little-endian
    POINT / LINESTRING / POLYGON features (type+dims from the header
    gather, non-emptiness from the count field); big-endian, multi, and
    collection rows fall back to the exact per-feature parser. Matches
    the per-row semantics of src/geoarrow.c:1616-1628: WKB POINT EMPTY
    (all-NaN coord) still counts, coordinate-less features do not.
    """
    arr = _binary_values(arr)
    offs, buf, valid = _buffer_views(arr)
    n = len(arr)
    if n == 0:
        return 0
    live = np.ones(n, dtype=bool) if valid is None else valid
    if not np.any(live):
        return 0
    starts = offs[:-1][live]
    lens = np.diff(offs)[live]
    if np.any(lens < 5):
        raise ValueError("WKB feature shorter than its header")
    le = buf[starts] == 1
    codes = np.where(le, _u32_at(buf, starts + 1), np.uint32(0))
    geom = codes % 1000
    dcode = codes // 1000
    fast = le & (geom >= 1) & (geom <= 3) & (dcode <= 3)
    counted = np.zeros(starts.shape[0], dtype=bool)
    # POINT: the reference's WKB reader emits the (possibly all-NaN) coord,
    # so POINT always counts (see _node_first_coords docstring).
    counted |= fast & (geom == 1)
    ls = fast & (geom == 2)
    if np.any(ls):
        counted[ls] = _u32_at(buf, starts[ls] + 5) > 0
    pg = fast & (geom == 3)
    if np.any(pg):
        nr = _u32_at(buf, starts[pg] + 5)
        first_ring = np.zeros(nr.shape[0], dtype=np.uint32)
        has_ring = nr > 0
        first_ring[has_ring] = _u32_at(buf, starts[pg][has_ring] + 9)
        counted[pg] = first_ring > 0
        # >0 rings but empty first ring: later rings may hold coords —
        # too rare to vectorize, resolve exactly
        fast[np.flatnonzero(pg)[has_ring & (first_ring == 0)]] = False
    mask = 0
    hit = fast & counted
    if np.any(hit):
        bits = (dcode[hit].astype(np.int64) + 1) * 8 + geom[hit].astype(np.int64)
        for b in np.unique(bits):
            mask |= 1 << int(b)
    if not np.all(fast):
        idx = np.flatnonzero(live)[~fast]
        for i in idx:
            node = parse_feature(arr[int(i)].as_py())
            if _node_first_coords(node):
                mask |= 1 << (int(node.dims) * 8 + int(node.geom))
    return mask


# ------------------------------------------------------------------ build

def _pad_coords(c: np.ndarray, src_dims: Dimensions, dst_dims: Dimensions) -> np.ndarray:
    """Reproject coord columns between dimension sets; missing → NaN
    (reference fill rule src/r-sf-compat.c:86-96)."""
    if src_dims == dst_dims:
        return c
    src = src_dims.letters
    dst = dst_dims.letters
    out = np.full((c.shape[0], len(dst)), np.nan)
    for j, letter in enumerate(dst):
        if letter in src:
            out[:, j] = c[:, src.index(letter)]
    return out


def build_native(
    nodes: list[Node | None], target: GeoType, crs_like: GeoType | None = None
) -> pa.Array:
    """Assemble parsed features into the target native layout, applying the
    reference's cast semantics (POINT under MULTIPOINT target, etc.)."""
    gt = target.geometry_type
    dims = target.dimensions
    nd = dims.count
    n = len(nodes)
    mask = np.zeros(n, dtype=bool)

    def feature_parts(node: Node) -> list[np.ndarray]:
        """List of coord runs (one per ring/linestring element)."""
        if node.coords is not None:
            return [node.coords]
        if node.rings is not None:
            return list(node.rings)
        out = []
        for ch in node.children:
            out.extend(feature_parts(ch))
        return out

    if gt == GeometryType.POINT:
        coords = np.full((n, nd), np.nan)
        for i, node in enumerate(nodes):
            if node is None:
                mask[i] = True
                continue
            if node.geom != GeometryType.POINT:
                raise ValueError(f"cannot cast {node.geom.name} to POINT")
            if node.coords.shape[0]:
                coords[i] = _pad_coords(node.coords, node.dims, dims)[0]
        return native.build_points(coords, target, mask=mask if mask.any() else None)

    chunks: list[np.ndarray] = []
    if gt in (GeometryType.LINESTRING, GeometryType.MULTIPOINT):
        offs = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(nodes):
            cnt = 0
            if node is None:
                mask[i] = True
            else:
                if gt == GeometryType.LINESTRING and node.geom != GeometryType.LINESTRING:
                    raise ValueError(f"cannot cast {node.geom.name} to LINESTRING")
                if gt == GeometryType.MULTIPOINT and node.geom not in (
                    GeometryType.POINT,
                    GeometryType.MULTIPOINT,
                ):
                    raise ValueError(f"cannot cast {node.geom.name} to MULTIPOINT")
                parts = feature_parts(node)
                for p in parts:
                    if node.geom == GeometryType.POINT and np.all(np.isnan(p)):
                        continue  # POINT EMPTY → MULTIPOINT with zero points
                    if p.shape[0]:
                        chunks.append(_pad_coords(p, node.dims, dims))
                        cnt += p.shape[0]
            offs[i + 1] = offs[i] + cnt
        coords = np.concatenate(chunks) if chunks else np.empty((0, nd))
        return native.build_nested(coords, [offs], target, mask=mask if mask.any() else None)

    if gt in (GeometryType.POLYGON, GeometryType.MULTILINESTRING):
        outer = np.zeros(n + 1, dtype=np.int64)
        inner = [0]
        for i, node in enumerate(nodes):
            parts_n = 0
            if node is None:
                mask[i] = True
            else:
                if gt == GeometryType.POLYGON and node.geom != GeometryType.POLYGON:
                    raise ValueError(f"cannot cast {node.geom.name} to POLYGON")
                if gt == GeometryType.MULTILINESTRING and node.geom not in (
                    GeometryType.LINESTRING,
                    GeometryType.MULTILINESTRING,
                ):
                    raise ValueError(f"cannot cast {node.geom.name} to MULTILINESTRING")
                for p in feature_parts(node):
                    chunks.append(_pad_coords(p, node.dims, dims))
                    inner.append(inner[-1] + p.shape[0])
                    parts_n += 1
            outer[i + 1] = outer[i] + parts_n
        coords = np.concatenate(chunks) if chunks else np.empty((0, nd))
        return native.build_nested(
            coords,
            [outer, np.asarray(inner, dtype=np.int64)],
            target,
            mask=mask if mask.any() else None,
        )

    if gt == GeometryType.MULTIPOLYGON:
        o0 = np.zeros(n + 1, dtype=np.int64)
        o1 = [0]
        o2 = [0]
        for i, node in enumerate(nodes):
            polys = 0
            if node is None:
                mask[i] = True
            else:
                if node.geom == GeometryType.POLYGON:
                    poly_nodes = [node]
                elif node.geom == GeometryType.MULTIPOLYGON:
                    poly_nodes = node.children
                else:
                    raise ValueError(f"cannot cast {node.geom.name} to MULTIPOLYGON")
                for p in poly_nodes:
                    for r in p.rings:
                        chunks.append(_pad_coords(r, p.dims, dims))
                        o2.append(o2[-1] + r.shape[0])
                    o1.append(o1[-1] + len(p.rings))
                    polys += 1
            o0[i + 1] = o0[i] + polys
        coords = np.concatenate(chunks) if chunks else np.empty((0, nd))
        return native.build_nested(
            coords,
            [o0, np.asarray(o1, dtype=np.int64), np.asarray(o2, dtype=np.int64)],
            target,
            mask=mask if mask.any() else None,
        )

    raise ValueError(f"unsupported target {gt}")


# ----------------------------------------------------------------- decode

def decode(
    arr: pa.Array | pa.ChunkedArray, target: GeoType | None = None
) -> tuple[pa.Array, GeoType]:
    """WKB binary array → native array (+ its GeoType).

    Without a target, infers the narrowest type via the unique-types
    kernel + promotion rules (R/infer-default.R:85-152). Falls back to
    returning the input when inference says WKB (heterogeneous input).
    """
    arr = _binary_values(arr)

    if target is None:
        from georay.kernels import unique_types_finish

        codes = unique_types_finish(unique_types_mask(arr))
        t = infer_type_from_codes(codes) if codes else GeoType.wkb()
        if t.serialized:  # heterogeneous — stays WKB
            return arr, GeoType.wkb()
        target = t

    # fast path: every buffer is exactly a little-endian simple point
    # (plain binary only — large_binary has int64 offsets)
    if (
        target.geometry_type == GeometryType.POINT
        and arr.null_count == 0
        and pa.types.is_binary(arr.type)
    ):
        nd = target.dimensions.count
        fixed = 5 + 8 * nd
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        if len(arr) and np.all(np.diff(offs) == fixed):
            buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
            start = offs[0]
            flat = buf[start : start + fixed * len(arr)].reshape(len(arr), fixed)
            code = int(Dimensions(target.dimensions) - 1) * 1000 + 1
            if np.all(flat[:, 0] == 1) and np.all(
                flat[:, 1:5] == np.frombuffer(struct.pack("<I", code), np.uint8)
            ):
                coords = flat[:, 5:].copy().view("<f8").reshape(len(arr), nd)
                return native.build_points(coords, target), target

    fast = _decode_uniform(arr, target)
    if fast is not None:
        return fast, target

    nodes = [
        parse_feature(v.as_py()) if v.is_valid else None for v in arr
    ]
    return build_native(nodes, target), target


def _runs_coords(buf: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                 nd: int) -> np.ndarray:
    """Coordinate runs (byte starts + vertex counts) → (C, nd) float64.

    Gathers at COORD-VALUE granularity — one fancy-index over an
    8-byte sliding-window view (8 bytes copied per index entry) instead
    of a per-byte gather, which measured 3× slower at 200k polygons.
    WKB coord bytes are unaligned (13-byte headers), so a direct f8
    view of the buffer is not possible."""
    vals = nd * counts
    V = int(vals.sum())
    if V == 0:
        return np.empty((0, nd))
    if buf.shape[0] < 8:
        raise _FastBail
    off = np.concatenate(([0], np.cumsum(vals)[:-1]))
    vstart = np.repeat(starts, vals) + 8 * (
        np.arange(V) - np.repeat(off, vals)
    )
    win = np.lib.stride_tricks.sliding_window_view(buf, 8)
    b = win[vstart]
    return np.ascontiguousarray(b).view("<f8").astype(
        np.float64, copy=False
    ).reshape(-1, nd)


def _scatter_counts(n: int, valid: np.ndarray | None,
                    cnt: np.ndarray) -> np.ndarray:
    """Per-valid-feature counts → per-feature (nulls get 0)."""
    if valid is None:
        return cnt
    full = np.zeros(n, np.int64)
    full[valid] = cnt
    return full


def _decode_uniform(arr: pa.Array, target: GeoType) -> pa.Array | None:
    """Vectorized decode lane for UNIFORM-code little-endian batches —
    every non-null feature shares one ISO geometry code matching the
    target (or its MULTI promotion). Ragged ring/part structures are
    walked with per-ROUND vectorized cursor advances (round r touches
    only features owning an r-th element), then ALL coordinates gather
    in one fancy-index pass. Returns None when inapplicable (mixed
    codes, big-endian, EWKB flags, dim mismatch, malformed lengths) —
    the per-feature parser then handles/raises precisely.
    VERDICT r4 item 2; semantics pinned by the codec corpus pytest."""
    if target.serialized:
        return None
    offs, buf, valid = _buffer_views(arr)
    n = len(offs) - 1
    if n == 0:
        return None
    starts_all = offs[:-1]
    lens_all = np.diff(offs)
    if valid is not None:
        vstarts = starts_all[valid]
        vlens = lens_all[valid]
    else:
        vstarts, vlens = starts_all, lens_all
    nv = vstarts.shape[0]
    if nv == 0:
        return None
    if int(vlens.min()) < 5:
        return None
    if not np.all(buf[vstarts] == 1):
        return None  # big-endian features → per-feature path
    codes = _u32_at(buf, vstarts + 1)
    c0 = int(codes[0])
    if not np.all(codes == c0):
        return None
    if c0 & 0xE0000000:
        return None  # EWKB flags → per-feature path
    dimcode, geom_code = divmod(c0, 1000)
    if dimcode > 3 or not (1 <= geom_code <= 6):
        return None
    nd = _NDIM[dimcode]
    if _DIMS_ENUM[dimcode] != target.dimensions:
        return None
    gt = target.geometry_type
    geom = GeometryType(geom_code)
    mask = None if valid is None else ~valid

    def cursor_elements(bases: np.ndarray, counts: np.ndarray,
                        header: int, read_n_at: int):
        """Per-round vectorized walk of `counts_i` variable-length
        elements starting at `bases_i`; each element is `header` bytes
        followed by a u32 vertex count and 8·nd·count coord bytes.
        Returns (owner_idx, elem_idx, data_start, vcount, end_cursor)
        in ROUND order (reorder with lexsort((elem, owner)))."""
        cur = bases.copy()
        own, eix, dst, vct = [], [], [], []
        alive = np.arange(bases.shape[0])
        r = 0
        while alive.size:
            sel = counts[alive] > r
            alive = alive[sel]
            if alive.size == 0:
                break
            c = cur[alive]
            if header and not np.all(buf[c] == 1):
                raise _FastBail
            if header and not np.all(_u32_at(buf, c + 1) == (c0 - geom_code + read_n_at)):
                raise _FastBail
            hn = 5 if header else 0
            m = _u32_at(buf, c + hn).astype(np.int64)
            own.append(alive)
            eix.append(np.full(alive.shape[0], r, np.int64))
            dst.append(c + hn + 4)
            vct.append(m)
            cur[alive] = c + hn + 4 + 8 * nd * m
            r += 1
        if own:
            return (np.concatenate(own), np.concatenate(eix),
                    np.concatenate(dst), np.concatenate(vct), cur)
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty(0, np.int64), cur)

    try:
        if geom == GeometryType.POINT and gt in (
            GeometryType.POINT, GeometryType.MULTIPOINT
        ):
            if not np.all(vlens == 5 + 8 * nd):
                return None
            coords_v = _runs_coords(
                buf, vstarts + 5, np.ones(nv, np.int64), nd
            )
            if gt == GeometryType.POINT:
                if valid is None:
                    coords = coords_v
                else:
                    coords = np.full((n, nd), np.nan)
                    coords[valid] = coords_v
                return native.build_points(coords, target, mask=mask)
            # POINT → MULTIPOINT promotion: empty (all-NaN) → 0 points
            keep = ~np.all(np.isnan(coords_v), axis=1)
            cnt = _scatter_counts(n, valid, keep.astype(np.int64))
            o = np.concatenate(([0], np.cumsum(cnt)))
            return native.build_nested(
                coords_v[keep], [o], target, mask=mask
            )

        if geom == GeometryType.LINESTRING and gt in (
            GeometryType.LINESTRING, GeometryType.MULTILINESTRING
        ):
            m = _u32_at(buf, vstarts + 5).astype(np.int64)
            if not np.all(vlens == 9 + 8 * nd * m):
                return None
            coords = _runs_coords(buf, vstarts + 9, m, nd)
            if gt == GeometryType.LINESTRING:
                o = np.concatenate(
                    ([0], np.cumsum(_scatter_counts(n, valid, m)))
                )
                return native.build_nested(coords, [o], target, mask=mask)
            outer = np.concatenate(
                ([0], np.cumsum(_scatter_counts(
                    n, valid, np.ones(nv, np.int64))))
            )
            inner = np.concatenate(([0], np.cumsum(m)))
            return native.build_nested(
                coords, [outer, inner], target, mask=mask
            )

        if geom == GeometryType.POLYGON and gt in (
            GeometryType.POLYGON, GeometryType.MULTIPOLYGON
        ):
            nr = _u32_at(buf, vstarts + 5).astype(np.int64)
            own, rix, dst, vct, cur = cursor_elements(
                vstarts + 9, nr, header=0, read_n_at=0
            )
            if not np.all(cur == vstarts + vlens):
                return None
            order = np.lexsort((rix, own))
            dst, vct = dst[order], vct[order]
            coords = _runs_coords(buf, dst, vct, nd)
            inner = np.concatenate(([0], np.cumsum(vct)))
            if gt == GeometryType.POLYGON:
                outer = np.concatenate(
                    ([0], np.cumsum(_scatter_counts(n, valid, nr)))
                )
                return native.build_nested(
                    coords, [outer, inner], target, mask=mask
                )
            # POLYGON → MULTIPOLYGON promotion: 1 polygon per feature
            o0 = np.concatenate(
                ([0], np.cumsum(_scatter_counts(
                    n, valid, np.ones(nv, np.int64))))
            )
            o1 = np.concatenate(([0], np.cumsum(nr)))
            return native.build_nested(
                coords, [o0, o1, inner], target, mask=mask
            )

        if geom == GeometryType.MULTIPOINT and gt == GeometryType.MULTIPOINT:
            npnt = _u32_at(buf, vstarts + 5).astype(np.int64)
            stride = 5 + 8 * nd
            if not np.all(vlens == 9 + stride * npnt):
                return None
            tot = int(npnt.sum())
            if tot:
                off = np.concatenate(([0], np.cumsum(npnt)[:-1]))
                within = np.arange(tot) - np.repeat(off, npnt)
                cpos = np.repeat(vstarts + 9, npnt) + within * stride
                if not np.all(buf[cpos] == 1):
                    return None
                if not np.all(_u32_at(buf, cpos + 1) == c0 - geom_code + 1):
                    return None
                coords = _runs_coords(
                    buf, cpos + 5, np.ones(tot, np.int64), nd
                )
            else:
                coords = np.empty((0, nd))
            o = np.concatenate(
                ([0], np.cumsum(_scatter_counts(n, valid, npnt)))
            )
            return native.build_nested(coords, [o], target, mask=mask)

        if geom == GeometryType.MULTILINESTRING and gt == GeometryType.MULTILINESTRING:
            nls = _u32_at(buf, vstarts + 5).astype(np.int64)
            own, eix, dst, vct, cur = cursor_elements(
                vstarts + 9, nls, header=5, read_n_at=2
            )
            if not np.all(cur == vstarts + vlens):
                return None
            order = np.lexsort((eix, own))
            dst, vct = dst[order], vct[order]
            coords = _runs_coords(buf, dst, vct, nd)
            outer = np.concatenate(
                ([0], np.cumsum(_scatter_counts(n, valid, nls)))
            )
            inner = np.concatenate(([0], np.cumsum(vct)))
            return native.build_nested(
                coords, [outer, inner], target, mask=mask
            )

        if geom == GeometryType.MULTIPOLYGON and gt == GeometryType.MULTIPOLYGON:
            npoly = _u32_at(buf, vstarts + 5).astype(np.int64)
            # level 1: polygon children (5-byte header + ring count),
            # each holding a ragged ring list — per-round walk where
            # each round advances through ONE polygon of every feature
            # still owning one, with a nested per-round ring walk
            cur = (vstarts + 9).copy()
            p_own, p_idx, p_nr = [], [], []
            r_dst, r_vct, r_poly_gid = [], [], []
            gid_base = 0
            alive = np.arange(nv)
            p = 0
            while alive.size:
                sel = npoly[alive] > p
                alive = alive[sel]
                if alive.size == 0:
                    break
                c = cur[alive]
                if not np.all(buf[c] == 1):
                    raise _FastBail
                if not np.all(_u32_at(buf, c + 1) == c0 - geom_code + 3):
                    raise _FastBail
                nr = _u32_at(buf, c + 5).astype(np.int64)
                p_own.append(alive)
                p_idx.append(np.full(alive.shape[0], p, np.int64))
                p_nr.append(nr)
                # inner ring walk for this round's polygons
                rcur = c + 9
                ralive = np.arange(alive.shape[0])
                rr = 0
                while ralive.size:
                    rsel = nr[ralive] > rr
                    ralive = ralive[rsel]
                    if ralive.size == 0:
                        break
                    rc = rcur[ralive]
                    m = _u32_at(buf, rc).astype(np.int64)
                    r_dst.append(rc + 4)
                    r_vct.append(m)
                    r_poly_gid.append(
                        (gid_base + ralive) * (1 << 20) + rr
                    )
                    rcur[ralive] = rc + 4 + 8 * nd * m
                    rr += 1
                    if rr >= (1 << 20):
                        raise _FastBail
                cur[alive] = rcur
                gid_base += alive.shape[0]
                p += 1
            if not np.all(cur == vstarts + vlens):
                return None
            if p_own:
                p_own_a = np.concatenate(p_own)
                p_idx_a = np.concatenate(p_idx)
                p_nr_a = np.concatenate(p_nr)
            else:
                p_own_a = np.empty(0, np.int64)
                p_idx_a = np.empty(0, np.int64)
                p_nr_a = np.empty(0, np.int64)
            # polygon order: (feature, poly idx); ring order rides the
            # per-round gid (round-major polygon id × 2^20 + ring idx)
            # remapped through the polygon sort
            porder = np.lexsort((p_idx_a, p_own_a))
            if r_dst:
                r_dst_a = np.concatenate(r_dst)
                r_vct_a = np.concatenate(r_vct)
                r_gid_a = np.concatenate(r_poly_gid)
                # map round-major polygon gid → sorted polygon position
                inv = np.empty(porder.shape[0], np.int64)
                inv[porder] = np.arange(porder.shape[0])
                rkey = inv[r_gid_a >> 20] * (1 << 20) + (
                    r_gid_a & ((1 << 20) - 1)
                )
                rorder = np.argsort(rkey, kind="stable")
                r_dst_a, r_vct_a = r_dst_a[rorder], r_vct_a[rorder]
            else:
                r_dst_a = np.empty(0, np.int64)
                r_vct_a = np.empty(0, np.int64)
            coords = _runs_coords(buf, r_dst_a, r_vct_a, nd)
            o0 = np.concatenate(
                ([0], np.cumsum(_scatter_counts(n, valid, npoly)))
            )
            o1 = np.concatenate(([0], np.cumsum(p_nr_a[porder])))
            o2 = np.concatenate(([0], np.cumsum(r_vct_a)))
            return native.build_nested(
                coords, [o0, o1, o2], target, mask=mask
            )
    except (_FastBail, IndexError):
        # malformed/mixed structure mid-walk — per-feature parser
        # produces the precise error (or handles the oddity)
        return None
    return None


class _FastBail(Exception):
    """Internal: vectorized WKB lane hit a structure it cannot verify."""


# ----------------------------------------------------------------- encode

def _code(geom: GeometryType, dims: Dimensions) -> int:
    return _DIMCODE_OF[dims] * 1000 + int(geom)


def encode(arr: pa.Array | pa.ChunkedArray, geo: GeoType | None = None) -> pa.Array:
    """Native array → little-endian ISO WKB binary array."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if geo is None:
        geo = GeoType.from_field(pa.field("g", arr.type))
    gt = geo.geometry_type
    dims = geo.dimensions
    nd = dims.count

    if gt == GeometryType.POINT:
        v = native.view(arr, geo)
        n = v.length
        fixed = 5 + 8 * nd
        out = np.empty((n, fixed), dtype=np.uint8)
        out[:, 0] = 1
        out[:, 1:5] = np.frombuffer(struct.pack("<I", _code(gt, dims)), np.uint8)
        out[:, 5:] = v.coords.astype("<f8").view(np.uint8).reshape(n, 8 * nd)
        flat = out.reshape(-1)
        offsets = np.arange(0, (n + 1) * fixed, fixed, dtype=np.int32)
        mask = None
        if v.valid is not None:
            mask = pa.array(~v.valid)
        values = pa.py_buffer(flat.tobytes())
        res = pa.BinaryArray.from_buffers(
            pa.binary(), n, [None, pa.py_buffer(offsets.tobytes()), values]
        )
        if mask is not None:
            # rebuild with validity (from_buffers null bitmap juggling is
            # fiddly — take the compact route)
            res = pa.array(
                [res[i].as_py() if v.valid[i] else None for i in range(n)], pa.binary()
            )
        return res

    v = native.view(arr, geo)
    header = struct.pack("<B", 1)
    bufs: list[bytes | None] = []

    def coords_bytes(c: np.ndarray) -> bytes:
        return np.ascontiguousarray(c, dtype="<f8").tobytes()

    if gt in (GeometryType.LINESTRING, GeometryType.MULTIPOINT):
        o = v.offsets[0]
        code = struct.pack("<I", _code(gt, dims))
        pt_hdr = header + struct.pack("<I", _code(GeometryType.POINT, dims))
        for i in range(v.length):
            if v.valid is not None and not v.valid[i]:
                bufs.append(None)
                continue
            c = v.coords[o[i] : o[i + 1]]
            if gt == GeometryType.LINESTRING:
                bufs.append(header + code + struct.pack("<I", c.shape[0]) + coords_bytes(c))
            else:
                body = b"".join(pt_hdr + coords_bytes(c[j : j + 1]) for j in range(c.shape[0]))
                bufs.append(header + code + struct.pack("<I", c.shape[0]) + body)
    elif gt in (GeometryType.POLYGON, GeometryType.MULTILINESTRING):
        o0, o1 = v.offsets
        code = struct.pack("<I", _code(gt, dims))
        ls_code = struct.pack("<I", _code(GeometryType.LINESTRING, dims))
        for i in range(v.length):
            if v.valid is not None and not v.valid[i]:
                bufs.append(None)
                continue
            parts = []
            for r in range(o0[i], o0[i + 1]):
                c = v.coords[o1[r] : o1[r + 1]]
                if gt == GeometryType.POLYGON:
                    parts.append(struct.pack("<I", c.shape[0]) + coords_bytes(c))
                else:
                    parts.append(
                        header + ls_code + struct.pack("<I", c.shape[0]) + coords_bytes(c)
                    )
            bufs.append(
                header + code + struct.pack("<I", o0[i + 1] - o0[i]) + b"".join(parts)
            )
    elif gt == GeometryType.MULTIPOLYGON:
        o0, o1, o2 = v.offsets
        code = struct.pack("<I", _code(gt, dims))
        poly_code = struct.pack("<I", _code(GeometryType.POLYGON, dims))
        for i in range(v.length):
            if v.valid is not None and not v.valid[i]:
                bufs.append(None)
                continue
            polys = []
            for p in range(o0[i], o0[i + 1]):
                rings = []
                for r in range(o1[p], o1[p + 1]):
                    c = v.coords[o2[r] : o2[r + 1]]
                    rings.append(struct.pack("<I", c.shape[0]) + coords_bytes(c))
                polys.append(
                    header + poly_code + struct.pack("<I", o1[p + 1] - o1[p]) + b"".join(rings)
                )
            bufs.append(
                header + code + struct.pack("<I", o0[i + 1] - o0[i]) + b"".join(polys)
            )
    else:
        raise ValueError(f"unsupported geometry type for WKB encode: {gt}")

    return pa.array(bufs, pa.binary())
