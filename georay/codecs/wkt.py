"""WKT codec: utf8 arrays ↔ GeoArrow-native arrays.

Reference parity:
- writer text layout (spacing, dims tags ``POINT Z (…)``, EMPTY,
  flat multipoint ``MULTIPOINT (0 1, 2 3)`` by default):
  /root/reference/src/geoarrow.c:5540-5896, default flat mode at 5825,
  expected strings in tests/testthat/test-handle.R:24-134
- double formatting: fixed notation with ``precision`` (default 16,
  clamped 0–16) digits after the decimal point, trailing zeros stripped;
  scientific with 17 significant digits for |x| > 1e17
  (/root/reference/src/geoarrow.c:6331-6379 + vendored Ryu src/d2s.c).
  Python's correctly-rounded ``format`` reproduces both paths.
- ``max_element_size_bytes`` option truncates each feature's text
  (kernel option, src/geoarrow.c:1484-1494, 5737)
- reader: recursive descent accepting both flat and nested MULTIPOINT
  (src/geoarrow.c:5013-5538, flat accepted at 5202)
- all-NaN native POINT is written as ``POINT EMPTY`` (the engine-wide
  empty-point convention, src/r-wk-handle-stream.cc:195-222)
"""

from __future__ import annotations

import decimal
import math
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from georay.codecs import native
from georay.codecs.wkb import Node, build_native
from georay.kernels import infer_type_from_codes
from georay.types import Dimensions, GeometryType, GeoType

_GEOM_NAME = {
    GeometryType.POINT: "POINT",
    GeometryType.LINESTRING: "LINESTRING",
    GeometryType.POLYGON: "POLYGON",
    GeometryType.MULTIPOINT: "MULTIPOINT",
    GeometryType.MULTILINESTRING: "MULTILINESTRING",
    GeometryType.MULTIPOLYGON: "MULTIPOLYGON",
    GeometryType.GEOMETRYCOLLECTION: "GEOMETRYCOLLECTION",
}
_NAME_GEOM = {v: k for k, v in _GEOM_NAME.items()}
_DIMS_TAG = {
    Dimensions.XY: "",
    Dimensions.XYZ: " Z",
    Dimensions.XYM: " M",
    Dimensions.XYZM: " ZM",
}
_TAG_DIMS = {"Z": Dimensions.XYZ, "M": Dimensions.XYM, "ZM": Dimensions.XYZM}


def format_double(x: float, precision: int = 16) -> str:
    """Replicates GeoArrowPrintDouble (src/geoarrow.c:6331-6341 + Ryu
    src/d2s.c:690-733): start from the SHORTEST round-trip decimal form
    (Python ``repr`` == Ryu d2d), then — fixed notation with at most
    ``precision`` decimals, rounded half-even, trailing zeros stripped;
    scientific ``d.ddd…e±XX`` for |x| > 1e17."""
    precision = max(0, min(16, precision))
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        return "-0" if math.copysign(1.0, x) < 0 else "0"
    d = decimal.Decimal(repr(x))
    if x > 1.0e17 or x < -1.0e17:
        sign, digits, _ = d.as_tuple()
        exp10 = d.adjusted()
        mant = str(digits[0])
        rest = "".join(map(str, digits[1:])).rstrip("0")
        if rest:
            mant += "." + rest
        return f"{'-' if sign else ''}{mant}e{'+' if exp10 >= 0 else '-'}{abs(exp10)}"
    exp = d.as_tuple().exponent
    if -exp > precision:
        d = d.quantize(
            decimal.Decimal(1).scaleb(-precision), rounding=decimal.ROUND_HALF_EVEN
        )
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


# ------------------------------------------------------------------ write

def _coords_text(c: np.ndarray, precision: int) -> str:
    return ", ".join(
        " ".join(format_double(v, precision) for v in row) for row in c
    )


def write_node(node: Node, precision: int = 16, flat_multipoint: bool = True) -> str:
    name = _GEOM_NAME[node.geom] + _DIMS_TAG[node.dims]
    g = node.geom
    if g == GeometryType.POINT:
        if node.coords.shape[0] == 0 or np.all(np.isnan(node.coords)):
            return f"{name} EMPTY"
        return f"{name} ({_coords_text(node.coords, precision)})"
    if g == GeometryType.LINESTRING:
        if node.coords.shape[0] == 0:
            return f"{name} EMPTY"
        return f"{name} ({_coords_text(node.coords, precision)})"
    if g == GeometryType.POLYGON:
        if not node.rings:
            return f"{name} EMPTY"
        body = ", ".join(f"({_coords_text(r, precision)})" for r in node.rings)
        return f"{name} ({body})"
    if g == GeometryType.MULTIPOINT:
        if not node.children:
            return f"{name} EMPTY"
        if flat_multipoint and all(
            ch.coords is not None and ch.coords.shape[0] == 1 and not np.all(np.isnan(ch.coords))
            for ch in node.children
        ):
            body = ", ".join(_coords_text(ch.coords, precision) for ch in node.children)
            return f"{name} ({body})"
        parts = []
        for ch in node.children:
            if ch.coords.shape[0] == 0 or np.all(np.isnan(ch.coords)):
                parts.append("EMPTY")
            else:
                parts.append(f"({_coords_text(ch.coords, precision)})")
        return f"{name} ({', '.join(parts)})"
    if g == GeometryType.MULTILINESTRING:
        if not node.children:
            return f"{name} EMPTY"
        parts = [
            "EMPTY" if ch.coords.shape[0] == 0 else f"({_coords_text(ch.coords, precision)})"
            for ch in node.children
        ]
        return f"{name} ({', '.join(parts)})"
    if g == GeometryType.MULTIPOLYGON:
        if not node.children:
            return f"{name} EMPTY"
        parts = []
        for ch in node.children:
            if not ch.rings:
                parts.append("EMPTY")
            else:
                parts.append(
                    "(" + ", ".join(f"({_coords_text(r, precision)})" for r in ch.rings) + ")"
                )
        return f"{name} ({', '.join(parts)})"
    if g == GeometryType.GEOMETRYCOLLECTION:
        if not node.children:
            return f"{name} EMPTY"
        body = ", ".join(
            write_node(ch, precision, flat_multipoint) for ch in node.children
        )
        return f"{name} ({body})"
    raise ValueError(f"cannot write {g}")


class _BudgetReached(Exception):
    """Serialization budget hit — the reference's EAGAIN parse-abort
    (src/geoarrow.c:1484-1494): stop emitting mid-feature instead of
    formatting the whole geometry and cutting afterwards."""


class _BudgetSink:
    def __init__(self, budget: int):
        self.parts: list[str] = []
        self.n = 0
        self.budget = budget

    def write(self, s: str) -> None:
        self.parts.append(s)
        self.n += len(s)
        if self.n >= self.budget:
            raise _BudgetReached

    def text(self) -> str:
        s = "".join(self.parts)
        return s[: self.budget] if len(s) > self.budget else s


def _coords_to(sink: "_BudgetSink", c: np.ndarray, precision: int,
               block: int = 64) -> None:
    """Stream a coord sequence into the sink in row blocks so a giant
    ring aborts after ~block rows past the budget, not at the end."""
    for i0 in range(0, c.shape[0], block):
        txt = _coords_text(c[i0:i0 + block], precision)
        sink.write(", " + txt if i0 else txt)


def _write_node_to(sink: "_BudgetSink", node: Node, precision: int,
                   flat_multipoint: bool) -> None:
    """Budget-aborting twin of ``write_node`` — emits the IDENTICAL
    fragment stream (pinned by the prefix-parity test), raising
    ``_BudgetReached`` from inside the sink once the budget fills."""
    name = _GEOM_NAME[node.geom] + _DIMS_TAG[node.dims]
    g = node.geom
    if g == GeometryType.POINT:
        if node.coords.shape[0] == 0 or np.all(np.isnan(node.coords)):
            sink.write(f"{name} EMPTY")
            return
        sink.write(f"{name} (")
        _coords_to(sink, node.coords, precision)
        sink.write(")")
        return
    if g == GeometryType.LINESTRING:
        if node.coords.shape[0] == 0:
            sink.write(f"{name} EMPTY")
            return
        sink.write(f"{name} (")
        _coords_to(sink, node.coords, precision)
        sink.write(")")
        return
    if g == GeometryType.POLYGON:
        if not node.rings:
            sink.write(f"{name} EMPTY")
            return
        sink.write(f"{name} (")
        for j, r in enumerate(node.rings):
            sink.write(", (" if j else "(")
            _coords_to(sink, r, precision)
            sink.write(")")
        sink.write(")")
        return
    if g == GeometryType.MULTIPOINT:
        if not node.children:
            sink.write(f"{name} EMPTY")
            return
        if flat_multipoint and all(
            ch.coords is not None and ch.coords.shape[0] == 1
            and not np.all(np.isnan(ch.coords))
            for ch in node.children
        ):
            sink.write(f"{name} (")
            for j, ch in enumerate(node.children):
                if j:
                    sink.write(", ")
                _coords_to(sink, ch.coords, precision)
            sink.write(")")
            return
        sink.write(f"{name} (")
        for j, ch in enumerate(node.children):
            if j:
                sink.write(", ")
            if ch.coords.shape[0] == 0 or np.all(np.isnan(ch.coords)):
                sink.write("EMPTY")
            else:
                sink.write("(")
                _coords_to(sink, ch.coords, precision)
                sink.write(")")
        sink.write(")")
        return
    if g == GeometryType.MULTILINESTRING:
        if not node.children:
            sink.write(f"{name} EMPTY")
            return
        sink.write(f"{name} (")
        for j, ch in enumerate(node.children):
            if j:
                sink.write(", ")
            if ch.coords.shape[0] == 0:
                sink.write("EMPTY")
            else:
                sink.write("(")
                _coords_to(sink, ch.coords, precision)
                sink.write(")")
        sink.write(")")
        return
    if g == GeometryType.MULTIPOLYGON:
        if not node.children:
            sink.write(f"{name} EMPTY")
            return
        sink.write(f"{name} (")
        for j, ch in enumerate(node.children):
            if j:
                sink.write(", ")
            if not ch.rings:
                sink.write("EMPTY")
            else:
                sink.write("(")
                for i, r in enumerate(ch.rings):
                    sink.write(", (" if i else "(")
                    _coords_to(sink, r, precision)
                    sink.write(")")
                sink.write(")")
        sink.write(")")
        return
    if g == GeometryType.GEOMETRYCOLLECTION:
        if not node.children:
            sink.write(f"{name} EMPTY")
            return
        sink.write(f"{name} (")
        for j, ch in enumerate(node.children):
            if j:
                sink.write(", ")
            _write_node_to(sink, ch, precision, flat_multipoint)
        sink.write(")")
        return
    raise ValueError(f"cannot write {g}")


def write_node_limited(node: Node, precision: int, flat_multipoint: bool,
                       budget: int) -> str:
    """``write_node`` capped at ``budget`` bytes, aborting serialization
    once the budget fills (reference parity, src/geoarrow.c:1484-1494)
    — identical output to ``write_node(...)[:budget]``."""
    sink = _BudgetSink(budget)
    try:
        _write_node_to(sink, node, precision, flat_multipoint)
    except _BudgetReached:
        pass
    return sink.text()


def nodes_from_native(arr: pa.Array, geo: GeoType) -> list[Node | None]:
    """Per-feature Node trees from a native array (loop over offsets)."""
    v = native.view(arr, geo)
    gt = geo.geometry_type
    dims = geo.dimensions
    out: list[Node | None] = []
    for i in range(v.length):
        if v.valid is not None and not v.valid[i]:
            out.append(None)
            continue
        if gt == GeometryType.POINT:
            out.append(Node(gt, dims, coords=v.coords[i : i + 1]))
        elif gt in (GeometryType.LINESTRING, GeometryType.MULTIPOINT):
            o = v.offsets[0]
            c = v.coords[o[i] : o[i + 1]]
            if gt == GeometryType.LINESTRING:
                out.append(Node(gt, dims, coords=c))
            else:
                out.append(
                    Node(
                        gt,
                        dims,
                        children=[
                            Node(GeometryType.POINT, dims, coords=c[j : j + 1])
                            for j in range(c.shape[0])
                        ],
                    )
                )
        elif gt in (GeometryType.POLYGON, GeometryType.MULTILINESTRING):
            o0, o1 = v.offsets
            parts = [
                v.coords[o1[r] : o1[r + 1]] for r in range(o0[i], o0[i + 1])
            ]
            if gt == GeometryType.POLYGON:
                out.append(Node(gt, dims, rings=parts))
            else:
                out.append(
                    Node(
                        gt,
                        dims,
                        children=[Node(GeometryType.LINESTRING, dims, coords=p) for p in parts],
                    )
                )
        elif gt == GeometryType.MULTIPOLYGON:
            o0, o1, o2 = v.offsets
            polys = []
            for p in range(o0[i], o0[i + 1]):
                rings = [v.coords[o2[r] : o2[r + 1]] for r in range(o1[p], o1[p + 1])]
                polys.append(Node(GeometryType.POLYGON, dims, rings=rings))
            out.append(Node(gt, dims, children=polys))
        else:
            raise ValueError(f"unsupported type {gt}")
    return out


def _format_double_fast(x: float) -> str:
    """``format_double(x, 16)`` by a cheap repr path: Python repr IS the
    shortest round-trip (Ryu d2d) form, so for the common shape — finite,
    plain notation, ≤16 fractional digits — stripping a trailing ``.0``
    is all the reference formatter does. Exotic shapes (scientific
    notation, >16 fractional digits, zeros, non-finite) fall back to the
    full decimal-quantize path. Equality with ``format_double`` is
    property-tested."""
    if x != x or x in (float("inf"), float("-inf")) or x == 0:
        return format_double(x, 16)
    s = repr(x)
    dot = s.find(".")
    if "e" in s or dot < 0 or len(s) - dot - 1 > 16:
        return format_double(x, 16)
    if s.endswith(".0"):
        return s[:-2]
    return s


def _format_doubles_arrow(x: np.ndarray) -> pa.Array:
    """Vectorized ``format_double(·, 16)`` over a float64 vector: Arrow's
    double→utf8 cast emits the identical shortest-round-trip fixed form
    for the common range (zeros/-0/nan/±inf included); values Arrow
    prints in scientific notation or with >16 fractional digits fall
    back to the scalar formatter (sparse scatter — zero Python in the
    common case). Equality with ``format_double`` is pinned by the
    encode-lane parity tests."""
    arr = pa.array(x, pa.float64())
    s = pc.cast(arr, pa.string())
    has_e = pc.match_substring(s, "e")
    dot = pc.find_substring(s, ".")
    frac = pc.subtract(pc.subtract(pc.utf8_length(s), dot), 1)
    too_long = pc.and_(
        pc.greater_equal(dot, 0), pc.greater(frac, 16)
    )
    bad = pc.or_(has_e, too_long)
    if pc.any(bad).as_py():
        idx = np.flatnonzero(np.asarray(bad))
        so = np.asarray(s).astype(object)
        for i in idx:
            so[i] = format_double(float(x[i]), 16)
        s = pa.array(so, pa.string())
    return s


def _encode_uniform_wkt(
    arr: pa.Array, geo: GeoType, flat_multipoint: bool
) -> pa.Array | None:
    """Vectorized WKT ENCODE lane (r5): the whole column assembles with
    Arrow C kernels — coordinate doubles format via
    ``_format_doubles_arrow``, vertices join with
    ``binary_join_element_wise``, and every ragged ring/part/feature
    level joins with ONE ``pc.binary_join`` over a list view of the
    native offsets. Emits the byte-identical text of ``write_node``
    (pinned by parity tests); shapes the scalar writer treats
    specially — NaN multipoint children (nested EMPTY form), nested
    multipoint mode — bail to the per-feature writer."""
    gt = geo.geometry_type
    if gt not in (
        GeometryType.POINT,
        GeometryType.LINESTRING,
        GeometryType.POLYGON,
        GeometryType.MULTIPOINT,
        GeometryType.MULTILINESTRING,
        GeometryType.MULTIPOLYGON,
    ):
        return None
    if geo.dimensions != Dimensions.XY:
        return None
    if gt == GeometryType.MULTIPOINT and not flat_multipoint:
        return None
    v = native.view(arr, geo)
    coords = v.coords
    if gt == GeometryType.MULTIPOINT and coords.size and np.isnan(
        coords
    ).any():
        return None  # NaN child points take the writer's nested form
    sx = _format_doubles_arrow(np.ascontiguousarray(coords[:, 0]))
    sy = _format_doubles_arrow(np.ascontiguousarray(coords[:, 1]))
    sep_sp = pa.scalar(" ")
    vert = pc.binary_join_element_wise(sx, sy, sep_sp)
    tag = _GEOM_NAME[gt]

    def ragged_join(values: pa.Array, off: np.ndarray) -> pa.Array:
        lst = pa.LargeListArray.from_arrays(
            pa.array(off, pa.int64()), values
        )
        return pc.binary_join(lst, pa.scalar(", "))

    def wrap(body: pa.Array, pre: str, post: str) -> pa.Array:
        return pc.binary_join_element_wise(
            pa.scalar(pre), body, pa.scalar(post), pa.scalar("")
        )

    def finish(body: pa.Array, n_elem: np.ndarray) -> pa.Array:
        out = pc.if_else(
            pa.array(n_elem > 0),
            wrap(body, f"{tag} (", ")"),
            pa.scalar(f"{tag} EMPTY"),
        )
        if v.valid is not None:
            out = pc.if_else(pa.array(v.valid), out, pa.scalar(None, pa.string()))
        return out

    if gt == GeometryType.POINT:
        if coords.shape[0] != v.length:
            return None  # sliced/odd storage — per-feature writer
        empty = (
            np.all(np.isnan(coords), axis=1)
            if coords.shape[0]
            else np.zeros(0, bool)
        )
        out = pc.if_else(
            pa.array(~empty),
            wrap(vert, f"{tag} (", ")"),
            pa.scalar(f"{tag} EMPTY"),
        )
        if v.valid is not None:
            out = pc.if_else(
                pa.array(v.valid), out, pa.scalar(None, pa.string())
            )
        return out

    if gt in (GeometryType.LINESTRING, GeometryType.MULTIPOINT):
        (o0,) = v.offsets
        body = ragged_join(vert, o0)
        return finish(body, np.diff(o0))

    if gt in (GeometryType.POLYGON, GeometryType.MULTILINESTRING):
        o0, o1 = v.offsets
        part_body = ragged_join(vert, o1)
        if gt == GeometryType.POLYGON:
            part = wrap(part_body, "(", ")")  # empty ring → "()"
        else:
            # empty child linestring prints EMPTY, not "()"
            part = pc.if_else(
                pa.array(np.diff(o1) > 0),
                wrap(part_body, "(", ")"),
                pa.scalar("EMPTY"),
            )
        body = ragged_join(part, o0)
        return finish(body, np.diff(o0))

    o0, o1, o2 = v.offsets
    ring = wrap(ragged_join(vert, o2), "(", ")")
    poly_body = ragged_join(ring, o1)
    poly = pc.if_else(
        pa.array(np.diff(o1) > 0),
        wrap(poly_body, "(", ")"),
        pa.scalar("EMPTY"),  # ringless polygon child prints EMPTY
    )
    body = ragged_join(poly, o0)
    return finish(body, np.diff(o0))


def _encode_points_fast(arr: pa.Array, geo: GeoType) -> pa.Array:
    """POINT-XY fast lane for ``encode``: one vectorized view, then a
    single lightweight f-string per feature (no Node tree, no decimal)."""
    v = native.view(arr, geo)
    coords = v.coords
    empty = np.all(np.isnan(coords), axis=1) if coords.shape[0] else np.zeros(0, bool)
    ff = _format_double_fast
    out: list[str | None] = []
    for i in range(v.length):
        if v.valid is not None and not v.valid[i]:
            out.append(None)
        elif empty[i]:
            out.append("POINT EMPTY")
        else:
            out.append(f"POINT ({ff(coords[i, 0])} {ff(coords[i, 1])})")
    return pa.array(out, pa.string())


def encode(
    arr: pa.Array | pa.ChunkedArray,
    geo: GeoType | None = None,
    precision: int = 16,
    flat_multipoint: bool = True,
    max_element_size_bytes: int | None = None,
) -> pa.Array:
    """as_wkt / format_wkt kernel (src/geoarrow.c:1545-1576)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if geo is None:
        geo = GeoType.from_field(pa.field("g", arr.type))
    if (
        not geo.serialized
        and precision == 16
        and max_element_size_bytes is None
    ):
        fast = _encode_uniform_wkt(arr, geo, flat_multipoint)
        if fast is not None:
            return fast
        if (
            geo.geometry_type == GeometryType.POINT
            and geo.dimensions == Dimensions.XY
        ):
            return _encode_points_fast(arr, geo)
    if geo.serialized:
        from georay.codecs import wkb as wkb_codec

        nodes = [
            wkb_codec.parse_feature(v.as_py()) if v.is_valid else None for v in arr
        ]
    else:
        nodes = nodes_from_native(arr, geo)
    out = []
    for nd in nodes:
        if nd is None:
            out.append(None)
            continue
        if max_element_size_bytes is not None:
            s = write_node_limited(
                nd, precision, flat_multipoint, max_element_size_bytes
            )
        else:
            s = write_node(nd, precision, flat_multipoint)
        out.append(s)
    return pa.array(out, pa.string())


# ------------------------------------------------------------------ parse

_TOKEN_RE = re.compile(
    # signed inf/infinity/nan are single ordinate tokens (the reference's
    # fast_float from_chars accepts them case-insensitively with a sign;
    # bare words still match the keyword branch and float() both ways)
    r"\s*([-+]?[iI][nN][fF](?:[iI][nN][iI][tT][yY])?|[-+]?[nN][aA][nN]"
    r"|[A-Za-z]+|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\(|\)|,)"
)


class _Tokens:
    def __init__(self, s: str):
        self.s = s
        self.pos = 0

    def next(self) -> str | None:
        m = _TOKEN_RE.match(self.s, self.pos)
        if m is None:
            rest = self.s[self.pos :].strip()
            if rest:
                raise ValueError(f"bad WKT near {rest[:20]!r}")
            return None
        self.pos = m.end()
        return m.group(1)

    def peek(self) -> str | None:
        save = self.pos
        t = self.next()
        self.pos = save
        return t

    def expect(self, tok: str) -> None:
        t = self.next()
        if t != tok:
            raise ValueError(f"expected {tok!r}, got {t!r} in WKT")


def _parse_coord_seq(tk: _Tokens, ndim: int) -> np.ndarray:
    rows = []
    while True:
        row = []
        while True:
            t = tk.peek()
            if t in (",", ")"):
                break
            t = tk.next()
            try:
                row.append(float(t))
            except (TypeError, ValueError):
                raise ValueError(f"expected number, got {t!r}") from None
        if len(row) != ndim:
            raise ValueError(f"expected {ndim} ordinates, got {len(row)}")
        rows.append(row)
        t = tk.next()
        if t == ")":
            break
        if t != ",":
            raise ValueError(f"expected ',' or ')', got {t!r}")
    return np.asarray(rows, dtype=np.float64)


def _parse_geometry(tk: _Tokens, inherit_dims: Dimensions | None = None) -> Node:
    t = tk.next()
    if t is None:
        raise ValueError("empty WKT")
    name = t.upper()
    if name not in _NAME_GEOM:
        raise ValueError(f"unknown geometry type {t!r}")
    geom = _NAME_GEOM[name]
    # collection children without their own Z/M/ZM tag inherit the
    # parent's dims (GEOMETRYCOLLECTION Z (POINT (1 2 3)) parses the
    # child as XYZ); an explicit child tag always wins
    dims = inherit_dims if inherit_dims is not None else Dimensions.XY
    t = tk.next()
    if t is not None and t.upper() in _TAG_DIMS:
        dims = _TAG_DIMS[t.upper()]
        t = tk.next()
    nd = dims.count

    if t is not None and t.upper() == "EMPTY":
        if geom == GeometryType.POINT:
            return Node(geom, dims, coords=np.full((1, nd), np.nan))
        if geom == GeometryType.LINESTRING:
            return Node(geom, dims, coords=np.empty((0, nd)))
        if geom == GeometryType.POLYGON:
            return Node(geom, dims, rings=[])
        return Node(geom, dims, children=[])
    if t != "(":
        raise ValueError(f"expected '(' or EMPTY, got {t!r}")

    if geom == GeometryType.POINT:
        c = _parse_coord_seq(tk, nd)
        if c.shape[0] != 1:
            raise ValueError("POINT must have exactly one coordinate")
        return Node(geom, dims, coords=c)
    if geom == GeometryType.LINESTRING:
        return Node(geom, dims, coords=_parse_coord_seq(tk, nd))
    if geom == GeometryType.POLYGON:
        rings = []
        while True:
            tk.expect("(")
            rings.append(_parse_coord_seq(tk, nd))
            t = tk.next()
            if t == ")":
                break
            if t != ",":
                raise ValueError(f"expected ',' or ')', got {t!r}")
        return Node(geom, dims, rings=rings)
    if geom == GeometryType.MULTIPOINT:
        children = []
        while True:
            t = tk.peek()
            if t == "(":
                tk.next()
                c = _parse_coord_seq(tk, nd)
                children.append(Node(GeometryType.POINT, dims, coords=c))
                t = tk.next()
            elif t is not None and t.upper() == "EMPTY":
                tk.next()
                children.append(
                    Node(GeometryType.POINT, dims, coords=np.full((1, nd), np.nan))
                )
                t = tk.next()
            else:
                # flat form: MULTIPOINT (0 1, 2 3) — accepted on read
                # (src/geoarrow.c:5202)
                c = _parse_coord_seq(tk, nd)
                for j in range(c.shape[0]):
                    children.append(Node(GeometryType.POINT, dims, coords=c[j : j + 1]))
                t = ")"
            if t == ")":
                break
            if t != ",":
                raise ValueError(f"expected ',' or ')', got {t!r}")
        return Node(geom, dims, children=children)
    if geom == GeometryType.MULTILINESTRING:
        children = []
        while True:
            t = tk.next()
            if t == "(":
                children.append(
                    Node(GeometryType.LINESTRING, dims, coords=_parse_coord_seq(tk, nd))
                )
            elif t is not None and t.upper() == "EMPTY":
                children.append(Node(GeometryType.LINESTRING, dims, coords=np.empty((0, nd))))
            else:
                raise ValueError(f"expected '(' got {t!r}")
            t = tk.next()
            if t == ")":
                break
            if t != ",":
                raise ValueError(f"expected ',' or ')', got {t!r}")
        return Node(geom, dims, children=children)
    if geom == GeometryType.MULTIPOLYGON:
        children = []
        while True:
            t = tk.next()
            if t == "(":
                rings = []
                while True:
                    tk.expect("(")
                    rings.append(_parse_coord_seq(tk, nd))
                    t = tk.next()
                    if t == ")":
                        break
                    if t != ",":
                        raise ValueError(f"expected ',' or ')', got {t!r}")
                children.append(Node(GeometryType.POLYGON, dims, rings=rings))
            elif t is not None and t.upper() == "EMPTY":
                children.append(Node(GeometryType.POLYGON, dims, rings=[]))
            else:
                raise ValueError(f"expected '(' got {t!r}")
            t = tk.next()
            if t == ")":
                break
            if t != ",":
                raise ValueError(f"expected ',' or ')', got {t!r}")
        return Node(geom, dims, children=children)
    if geom == GeometryType.GEOMETRYCOLLECTION:
        children = []
        while True:
            children.append(_parse_geometry(tk, inherit_dims=dims))
            t = tk.next()
            if t == ")":
                break
            if t != ",":
                raise ValueError(f"expected ',' or ')', got {t!r}")
        return Node(geom, dims, children=children)
    raise ValueError(f"unsupported geometry {geom}")


def parse_feature_wkt(s: str) -> Node:
    tk = _Tokens(s)
    node = _parse_geometry(tk)
    if tk.next() is not None:
        raise ValueError(f"trailing characters in WKT: {s!r}")
    return node


# ----------------------------------------------------------------- decode

def _string_values(arr):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr


_WKT_TAGS = {
    GeometryType.LINESTRING: b"LINESTRING",
    GeometryType.POLYGON: b"POLYGON",
    GeometryType.MULTIPOINT: b"MULTIPOINT",
    GeometryType.MULTILINESTRING: b"MULTILINESTRING",
    GeometryType.MULTIPOLYGON: b"MULTIPOLYGON",
}
_WKT_MAX_DEPTH = {
    GeometryType.LINESTRING: 1,
    GeometryType.MULTIPOINT: 1,  # FLAT canonical form only
    GeometryType.POLYGON: 2,
    GeometryType.MULTILINESTRING: 2,
    GeometryType.MULTIPOLYGON: 3,
}


def _blank_spans(work: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
    """Overwrite the byte spans ``[starts[i], ends[i])`` of ``work`` with
    spaces, in one scatter."""
    lens = (ends - starts).astype(np.int64)
    tot = int(lens.sum())
    if tot:
        off = np.concatenate(([0], np.cumsum(lens)[:-1]))
        work[np.repeat(starts, lens) + np.arange(tot) - np.repeat(off, lens)] = 0x20


def _decode_uniform_wkt(arr: pa.Array, target: GeoType):
    """Vectorized WKT decode lane for UNIFORM canonical-form XY batches
    — the text sibling of the WKB ``_decode_uniform`` lane (r5, the
    other half of VERDICT missing-item 2). Applies when every non-null
    feature is the writer's canonical shape for the target type:
    ``TAG (...)`` or ``TAG EMPTY``, uppercase tag, XY only, flat
    MULTIPOINT. The whole column parses with array passes over the raw
    string buffer:

    - one cumulative parenthesis-depth scan gives every ring/part
      boundary (ring opens are '(' at depth d, vertex separators are
      ',' at depth d — no per-feature tokenizer);
    - tags, EMPTYs and structural chars blank to spaces and ALL
      coordinates parse in one C pass (``np.fromstring(sep=' ')`` —
      same strtod as the scalar parser, so values are bit-identical);
    - per-feature/ring/part counts come from ``searchsorted`` over the
      boundary positions.

    Structure is verified (prefix bytes, per-feature balanced depth,
    global depth bounds, float-count == 2 × vertex-count); ANY
    irregularity — Z/M, lowercase, nested multipoint, scientific
    oddities the float sweep truncates on, malformed nesting — returns
    None and the recursive-descent parser handles/raises precisely."""
    gt = target.geometry_type
    if (
        target.serialized
        or gt not in _WKT_TAGS
        or target.dimensions != Dimensions.XY
    ):
        return None
    if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        return None
    n = len(arr)
    if n == 0:
        return None
    if pa.types.is_large_string(arr.type):
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)
    else:
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int32).astype(np.int64)
    offs = offs[arr.offset : arr.offset + n + 1]
    if arr.buffers()[2] is None:
        return None
    buf_all = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    valid = None
    if arr.null_count > 0:
        valid = arr.is_valid().to_numpy(zero_copy_only=False)
    lo, hi = int(offs[0]), int(offs[-1])
    work = buf_all[lo:hi].copy()
    starts_all = offs[:-1] - lo
    ends_all = offs[1:] - lo
    if valid is not None:
        # bytes under a NULL slot are arbitrary: blank them so they can
        # neither move the depth scan nor land before the first valid
        # feature's start (a negative bincount index)
        _blank_spans(work, starts_all[~valid], ends_all[~valid])
        starts = starts_all[valid]
        ends = ends_all[valid]
    else:
        starts, ends = starts_all, ends_all
    nv = starts.shape[0]
    if nv == 0:
        return None
    tag = np.frombuffer(_WKT_TAGS[gt], np.uint8)
    tl = tag.shape[0]
    if int((ends - starts).min()) < tl + 6:  # shortest: "TAG EMPTY"
        return None
    for i in range(tl):
        if not np.all(work[starts + i] == tag[i]):
            return None
    if not np.all(work[starts + tl] == 0x20):  # space after tag
        return None
    nxt = work[starts + tl + 1]
    open_form = nxt == 0x28  # '('
    is_empty = nxt == 0x45  # 'E'
    if not np.all(open_form | is_empty):
        return None
    if is_empty.any():
        em = np.flatnonzero(is_empty)
        if not np.all(ends[em] - starts[em] == tl + 6):
            return None
        body = np.frombuffer(b" EMPTY", np.uint8)
        for i in range(6):
            if not np.all(work[starts[em] + tl + i] == body[i]):
                return None
        _blank_spans(work, starts[em], ends[em])  # EMPTY features entirely
    # blank the tag region of open-form features
    opn = np.flatnonzero(open_form)
    if opn.size:
        idx = (starts[opn][:, None] + np.arange(tl)).reshape(-1)
        work[idx] = 0x20
    op = work == 0x28
    cl = work == 0x29
    com = work == 0x2C
    depth = np.cumsum(op.astype(np.int32) - cl.astype(np.int32))
    max_d = _WKT_MAX_DEPTH[gt]
    if depth.min() < 0 or depth.max() > max_d:
        return None
    ne = ends[ends > starts]
    if ne.size and not np.all(depth[ne - 1] == 0):
        return None  # a feature's parens don't balance within it
    com_pos = np.flatnonzero(com)
    com_d = depth[com_pos]

    def feat_counts(positions: np.ndarray) -> np.ndarray:
        """#positions within each VALID feature span (features are
        disjoint ordered spans; a position belongs to the span it
        starts in)."""
        a = np.searchsorted(starts, positions, "right") - 1
        return np.bincount(a, minlength=nv)

    mask = None if valid is None else ~valid

    def scatter(cnt: np.ndarray) -> np.ndarray:
        if valid is None:
            return cnt
        full = np.zeros(n, np.int64)
        full[valid] = cnt
        return full

    if gt in (GeometryType.LINESTRING, GeometryType.MULTIPOINT):
        # depth-1 commas ONLY: a depth-0 comma means trailing junk the
        # scalar parser would reject — excluding it makes the float
        # cross-count catch the case
        vcom = feat_counts(com_pos[com_d == 1])
        verts = np.where(open_form, vcom + 1, 0).astype(np.int64)
    elif gt in (GeometryType.POLYGON, GeometryType.MULTILINESTRING):
        ring_open = np.flatnonzero(op & (depth == 2))
        rings_f = feat_counts(ring_open).astype(np.int64)
        ring_of_com = (
            np.searchsorted(ring_open, com_pos[com_d == 2], "right") - 1
        )
        verts_ring = (
            np.bincount(ring_of_com, minlength=ring_open.shape[0]) + 1
        ).astype(np.int64)
    else:  # MULTIPOLYGON
        poly_open = np.flatnonzero(op & (depth == 2))
        ring_open = np.flatnonzero(op & (depth == 3))
        polys_f = feat_counts(poly_open).astype(np.int64)
        ring_of_poly = (
            np.searchsorted(poly_open, ring_open, "right") - 1
        )
        rings_poly = np.bincount(
            ring_of_poly, minlength=poly_open.shape[0]
        ).astype(np.int64)
        ring_of_com = (
            np.searchsorted(ring_open, com_pos[com_d == 3], "right") - 1
        )
        verts_ring = (
            np.bincount(ring_of_com, minlength=ring_open.shape[0]) + 1
        ).astype(np.int64)
    # blank structure and parse every coordinate in one C pass
    work[op | cl | com] = 0x20
    # residual bytes must be float-token chars (digits, sign, dot,
    # exponent, nan/inf letters) or spaces — trailing junk that
    # np.fromstring would stop at exactly the expected count (e.g.
    # "LINESTRING (0 0, 1 1) junk") must bail to the parser's error
    allowed = np.zeros(256, bool)
    for ch in b" 0123456789.+-eEnNaAiIfF":
        allowed[ch] = True
    if not allowed[work].all():
        return None
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        floats = np.fromstring(work.tobytes(), dtype=np.float64, sep=" ")
    if gt in (GeometryType.LINESTRING, GeometryType.MULTIPOINT):
        total_verts = int(verts.sum())
    elif gt in (GeometryType.POLYGON, GeometryType.MULTILINESTRING):
        total_verts = int(verts_ring.sum())
    else:
        total_verts = int(verts_ring.sum())
    if floats.shape[0] != 2 * total_verts:
        return None  # stray tokens / Z data / empty rings — let the
        # scalar parser produce the precise outcome
    coords = floats.reshape(-1, 2)
    if gt in (GeometryType.LINESTRING, GeometryType.MULTIPOINT):
        o = np.concatenate(([0], np.cumsum(scatter(verts))))
        return native.build_nested(coords, [o], target, mask=mask)
    if gt in (GeometryType.POLYGON, GeometryType.MULTILINESTRING):
        outer = np.concatenate(
            ([0], np.cumsum(scatter(np.where(open_form, rings_f, 0))))
        )
        inner = np.concatenate(([0], np.cumsum(verts_ring)))
        return native.build_nested(coords, [outer, inner], target, mask=mask)
    o0 = np.concatenate(
        ([0], np.cumsum(scatter(np.where(open_form, polys_f, 0))))
    )
    o1 = np.concatenate(([0], np.cumsum(rings_poly)))
    o2 = np.concatenate(([0], np.cumsum(verts_ring)))
    return native.build_nested(coords, [o0, o1, o2], target, mask=mask)


def decode(
    arr: pa.Array | pa.ChunkedArray, target: GeoType | None = None
) -> tuple[pa.Array, GeoType]:
    arr = _string_values(arr)
    # POINT-XY vectorized lane: when EVERY feature matches the exact
    # 2-D ``POINT (x y)`` grammar, parse the whole column with Arrow C
    # kernels (regex strip → split → cast) — no per-row tokenizer.
    # Any other shape (nulls, EMPTY, other types, Z/M) falls through to
    # the recursive-descent parser, whose semantics this lane matches by
    # construction (the regex only admits strings float() round-trips).
    if (
        target is not None
        and not target.serialized
        and target.geometry_type == GeometryType.POINT
        and target.dimensions == Dimensions.XY
        and len(arr)
        and arr.null_count == 0
    ):
        hit = pc.match_substring_regex(arr, _POINT_FAST_RE)
        if pc.all(hit).as_py():
            inner = pc.replace_substring_regex(
                pc.replace_substring_regex(arr, r"^POINT \(", ""), r"\)$", ""
            )
            flat = pc.list_flatten(pc.split_pattern(inner, " "))
            vals = flat.cast(pa.float64()).to_numpy(zero_copy_only=False)
            coords = vals.reshape(-1, 2)
            return native.build_points(coords, target), target
    if target is not None:
        fast = _decode_uniform_wkt(arr, target)
        if fast is not None:
            return fast, target
    nodes = [parse_feature_wkt(v.as_py()) if v.is_valid else None for v in arr]
    if target is None:
        from georay.kernels import unique_types_finish

        mask = 0
        for nd in nodes:
            if nd is not None and _node_has_coords(nd):
                mask |= 1 << (int(nd.dims) * 8 + int(nd.geom))
        codes = unique_types_finish(mask)
        t = infer_type_from_codes(codes) if codes else GeoType.wkb()
        if t.serialized:
            from georay.codecs import wkb as wkb_codec

            # heterogeneous input → WKB fallback (R/infer-default.R:120-131)
            out = []
            for i, nd in enumerate(nodes):
                if nd is None:
                    out.append(None)
                else:
                    out.append(_node_to_wkb(nd))
            return pa.array(out, pa.binary()), GeoType.wkb()
        target = t
    return build_native(nodes, target), target


def _node_has_coords(node: Node) -> bool:
    if node.coords is not None:
        return node.coords.shape[0] > 0 and not (
            node.geom == GeometryType.POINT and np.all(np.isnan(node.coords))
        )
    if node.rings is not None:
        return any(r.shape[0] > 0 for r in node.rings)
    return any(_node_has_coords(c) for c in node.children)


def _node_to_wkb(node: Node) -> bytes:
    """Serialize a parsed node straight to little-endian ISO WKB."""
    import struct as _s

    from georay.codecs.wkb import _code

    head = _s.pack("<B", 1) + _s.pack("<I", _code(node.geom, node.dims))
    if node.geom == GeometryType.POINT:
        return head + np.ascontiguousarray(node.coords, "<f8").tobytes()
    if node.geom == GeometryType.LINESTRING:
        return (
            head
            + _s.pack("<I", node.coords.shape[0])
            + np.ascontiguousarray(node.coords, "<f8").tobytes()
        )
    if node.geom == GeometryType.POLYGON:
        body = b"".join(
            _s.pack("<I", r.shape[0]) + np.ascontiguousarray(r, "<f8").tobytes()
            for r in node.rings
        )
        return head + _s.pack("<I", len(node.rings)) + body
    body = b"".join(_node_to_wkb(ch) for ch in node.children)
    return head + _s.pack("<I", len(node.children)) + body


def unique_types_mask(arr) -> int:
    arr = _string_values(arr)
    mask = 0
    for v in arr:
        if not v.is_valid:
            continue
        nd = parse_feature_wkt(v.as_py())
        # WKT POINT EMPTY parses to no coords event in the reference, so
        # the all-NaN placeholder must not count here
        if _node_has_coords(nd):
            mask |= 1 << (int(nd.dims) * 8 + int(nd.geom))
    return mask


# fast-lane grammar: exactly the 2-D POINT shapes the full parser accepts
# with finite ordinates — anything NOT matching falls back to the real
# parser, so the lane can only ever accept a subset of valid inputs
_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_POINT_FAST_RE = rf"^POINT \({_NUM} {_NUM}\)$"


def validate(arr) -> int:
    """visit_void_agg: full parse, raising on malformed input
    (src/geoarrow.c:1528-1540). Returns the number of valid features.

    Fast lane: strings matching the exact 2-D ``POINT (x y)`` grammar
    (one compiled RE2 pass over the whole column via
    ``pc.match_substring_regex``) are valid by construction and skip the
    per-row parser; only the non-matching remainder takes the full
    parse. On machine-written corpora the lane covers ~100% of rows."""
    arr = _string_values(arr)
    hit = pc.fill_null(pc.match_substring_regex(arr, _POINT_FAST_RE), False)
    n = len(arr) - arr.null_count
    rest = arr.filter(pc.and_(pc.invert(hit), pc.is_valid(arr)))
    for v in rest:
        parse_feature_wkt(v.as_py())
    return n
