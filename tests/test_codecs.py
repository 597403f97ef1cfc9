"""Codec round-trip tests — the engine analogue of the reference's
test-handle.R wk-corpus round-trips (FIXTURES.md F3/F4)."""

import numpy as np
import pyarrow as pa
import pytest

from georay import kernels
from georay.codecs import native, wkb, wkt
from georay.types import CoordType, Dimensions, GeometryType, GeoType

# mirror of wk::wk_example_wkt coverage: every type × dims × EMPTY + nulls
CORPUS = [
    "POINT (30 10)",
    "POINT Z (30 10 5)",
    "POINT M (30 10 7)",
    "POINT ZM (30 10 5 7)",
    "POINT EMPTY",
    "POINT Z EMPTY",
    "LINESTRING (30 10, 10 30, 40 40)",
    "LINESTRING Z (30 10 1, 10 30 2, 40 40 3)",
    "LINESTRING EMPTY",
    "POLYGON ((30 10, 40 40, 20 40, 10 20, 30 10))",
    "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
    "POLYGON EMPTY",
    "MULTIPOINT (10 40, 40 30, 20 20, 30 10)",
    "MULTIPOINT EMPTY",
    "MULTILINESTRING ((10 10, 20 20, 10 40), (40 40, 30 30, 40 20, 30 10))",
    "MULTILINESTRING EMPTY",
    "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))",
    "MULTIPOLYGON (((40 40, 20 45, 45 30, 40 40)), ((20 35, 10 30, 10 10, 30 5, 45 20, 20 35), (30 20, 20 15, 20 25, 30 20)))",
    "MULTIPOLYGON EMPTY",
    "GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20, 10 40), POLYGON ((40 40, 20 45, 45 30, 40 40)))",
    "GEOMETRYCOLLECTION EMPTY",
    None,
    "POINT (0.2222222222222222 0.1)",  # high-precision shortest-round-trip
    "POINT (1e-06 -1.5)",
]


def test_wkt_parse_write_roundtrip():
    for s in CORPUS:
        if s is None:
            continue
        node = wkt.parse_feature_wkt(s)
        out = wkt.write_node(node)
        if s == "POINT (1e-06 -1.5)":
            # fixed-notation writer normalizes exponent input
            assert out == "POINT (0.000001 -1.5)"
        else:
            assert out == s, (s, out)


def test_wkt_wkb_wkt_roundtrip():
    arr = pa.array(CORPUS, pa.string())
    vals = [s for s in CORPUS]
    for s in vals:
        if s is None:
            continue
        node = wkt.parse_feature_wkt(s)
        data = wkt._node_to_wkb(node)
        node2 = wkb.parse_feature(data)
        out = wkt.write_node(node2)
        if s == "POINT (1e-06 -1.5)":
            assert out == "POINT (0.000001 -1.5)"
        else:
            assert out == s, (s, out)


@pytest.mark.parametrize(
    "subset,geo",
    [
        (["POINT (30 10)", "POINT EMPTY", None], GeoType.point()),
        (
            ["LINESTRING (30 10, 10 30, 40 40)", "LINESTRING EMPTY", None],
            GeoType.linestring(),
        ),
        (
            [
                "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
                "POLYGON EMPTY",
                None,
            ],
            GeoType.polygon(),
        ),
        (
            ["MULTIPOINT (10 40, 40 30)", "MULTIPOINT EMPTY", None],
            GeoType.multipoint(),
        ),
        (
            [
                "MULTILINESTRING ((10 10, 20 20, 10 40), (40 40, 30 30))",
                "MULTILINESTRING EMPTY",
                None,
            ],
            GeoType.multilinestring(),
        ),
        (
            [
                "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)))",
                "MULTIPOLYGON EMPTY",
                None,
            ],
            GeoType.multipolygon(),
        ),
    ],
)
def test_wkt_native_wkt_roundtrip(subset, geo):
    arr = pa.array(subset, pa.string())
    nat, t = wkt.decode(arr, geo)
    assert t.id == geo.id
    back = wkt.encode(nat, geo)
    assert back.to_pylist() == subset


@pytest.mark.parametrize(
    "subset,geo",
    [
        (["POINT (30 10)", "POINT EMPTY", None], GeoType.point()),
        (
            [
                "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
                "POLYGON EMPTY",
                None,
            ],
            GeoType.polygon(),
        ),
        (
            [
                "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)))",
                "MULTIPOLYGON EMPTY",
                None,
            ],
            GeoType.multipolygon(),
        ),
    ],
)
def test_native_wkb_native_roundtrip(subset, geo):
    nat, t = wkt.decode(pa.array(subset, pa.string()), geo)
    bin_arr = wkb.encode(nat, t)
    nat2, t2 = wkb.decode(bin_arr, t)
    v1 = native.view(nat, t)
    v2 = native.view(nat2, t2)
    assert np.allclose(v1.coords, v2.coords, equal_nan=True)
    assert all(np.array_equal(a, b) for a, b in zip(v1.offsets, v2.offsets))


def test_wkb_both_endiannesses_agree():
    import struct

    le = struct.pack("<BIdd", 1, 1, 30.0, 10.0)
    be = struct.pack(">BIdd", 0, 1, 30.0, 10.0)
    n1 = wkb.parse_feature(le)
    n2 = wkb.parse_feature(be)
    assert np.array_equal(n1.coords, n2.coords)


def test_wkt_precision_and_truncation():
    pts = native.build_points(np.array([[0.123456789, 1.0]]), GeoType.point())
    assert wkt.encode(pts, GeoType.point(), precision=3).to_pylist() == [
        "POINT (0.123 1)"
    ]
    long = wkt.encode(pts, GeoType.point(), max_element_size_bytes=7).to_pylist()
    assert long == ["POINT ("]


def test_wkt_shortest_roundtrip_16():
    # precision 16 reproduces shortest-round-trip text for these fixtures
    vals = [0.2222222222222222, 1 / 3, 1e-4, 123456789.123456]
    pts = native.build_points(
        np.array([[v, 0.0] for v in vals]), GeoType.point()
    )
    out = wkt.encode(pts, GeoType.point()).to_pylist()
    assert out[0] == "POINT (0.2222222222222222 0)"
    assert out[1] == "POINT (0.3333333333333333 0)"
    assert out[2] == "POINT (0.0001 0)"
    assert out[3] == "POINT (123456789.123456 0)"


def test_flat_multipoint_modes():
    nat, t = wkt.decode(
        pa.array(["MULTIPOINT ((10 40), (40 30))"], pa.string()), GeoType.multipoint()
    )
    assert wkt.encode(nat, t).to_pylist() == ["MULTIPOINT (10 40, 40 30)"]
    assert wkt.encode(nat, t, flat_multipoint=False).to_pylist() == [
        "MULTIPOINT ((10 40), (40 30))"
    ]


def test_mixed_input_falls_back_to_wkb():
    arr = pa.array(["POINT (0 1)", "LINESTRING (0 1, 2 3)"], pa.string())
    out, t = wkt.decode(arr)
    assert t.serialized
    assert pa.types.is_binary(out.type)
    # decodes back losslessly
    back = wkt.encode(out, t)
    assert back.to_pylist() == ["POINT (0 1)", "LINESTRING (0 1, 2 3)"]


def test_unique_types_excludes_empty():
    arr = pa.array(["POINT EMPTY", "LINESTRING (0 1, 2 3)"], pa.string())
    codes = kernels.unique_types_finish(kernels.unique_types_partial(arr, GeoType.wkt()))
    assert codes == [2]


def test_unique_types_mixed_dims():
    arr = pa.array(
        ["POINT (0 1)", "POINT Z (0 1 2)", "MULTIPOINT (3 4)"], pa.string()
    )
    codes = kernels.unique_types_finish(kernels.unique_types_partial(arr, GeoType.wkt()))
    assert codes == [1, 4, 1001]
    inferred = kernels.infer_type_from_codes(codes)
    assert inferred.geometry_type == GeometryType.MULTIPOINT
    assert inferred.dimensions == Dimensions.XYZ


def test_validate_raises_on_malformed():
    with pytest.raises(ValueError):
        wkt.validate(pa.array(["POINT (0"], pa.string()))
    with pytest.raises(ValueError):
        wkt.validate(pa.array(["FROB (1 2)"], pa.string()))
    assert wkt.validate(pa.array(["POINT (0 1)", None], pa.string())) == 1


def test_interleaved_point_roundtrip():
    geo = GeoType.point(coord_type=CoordType.INTERLEAVED)
    pts = native.build_points(np.array([[1.0, 2.0], [3.0, 4.0]]), geo)
    v = native.view(pts, geo)
    assert np.array_equal(v.coords, [[1.0, 2.0], [3.0, 4.0]])
    assert wkt.encode(pts, geo).to_pylist() == ["POINT (1 2)", "POINT (3 4)"]


def test_collection_children_inherit_dims():
    # children without their own dims tag inherit the collection's
    node = wkt.parse_feature_wkt("GEOMETRYCOLLECTION Z (POINT (1 2 3))")
    child = node.children[0]
    assert child.dims == Dimensions.XYZ
    assert child.coords.tolist() == [[1.0, 2.0, 3.0]]
    # an explicit child tag wins over the inherited one
    node2 = wkt.parse_feature_wkt(
        "GEOMETRYCOLLECTION Z (POINT Z (1 2 3), POINT (4 5 6))"
    )
    assert [c.dims for c in node2.children] == [Dimensions.XYZ, Dimensions.XYZ]
    # round-trip through the writer keeps the inherited dims
    assert "POINT Z (1 2 3)" in wkt.write_node(node)


def test_wkb_validate_vectorized_lanes():
    # uniform little-endian buffers take the numpy fast lane; the result
    # must equal the per-feature parse and malformed input must raise
    cases = [
        (["POINT (1 2)", "POINT (3 4)", None], GeoType.point()),
        (["LINESTRING (0 0, 1 1, 2 0)", "LINESTRING EMPTY"], GeoType.linestring()),
        (["MULTIPOINT ((0 0), (1 1))", "MULTIPOINT EMPTY"], GeoType.multipoint()),
        (
            [
                "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 1 3, 3 3, 1 1))",
                "POLYGON EMPTY",
            ],
            GeoType.polygon(),
        ),
    ]
    for wkts, geo in cases:
        nat, t = wkt.decode(pa.array(wkts, pa.string()), geo)
        bin_arr = wkb.encode(nat, t)
        n_expected = sum(1 for w in wkts if w is not None)
        assert wkb.validate(bin_arr) == n_expected, geo
    # mixed-type batch falls back to the exact parser and still counts
    p = wkb.encode(*wkt.decode(pa.array(["POINT (1 2)"], pa.string()), GeoType.point()))
    l = wkb.encode(
        *wkt.decode(pa.array(["LINESTRING (0 0, 1 1)"], pa.string()), GeoType.linestring())
    )
    mixed = pa.concat_arrays([p.cast(pa.binary()), l.cast(pa.binary())])
    assert wkb.validate(mixed) == 2
    # malformed: truncated buffer raises
    good = p[0].as_py()
    bad = pa.array([good[:-3]], pa.binary())
    with pytest.raises(Exception):
        wkb.validate(bad)
    # malformed with a PASSING uniform code but wrong count raises too
    import struct as _s

    forged = good[:5] + _s.pack("<I", 99) + good[5:]  # absurd trailing bytes
    with pytest.raises(Exception):
        wkb.validate(pa.array([forged], pa.binary()))


def test_wkt_fast_lane_fallback_parity():
    """The POINT fast lanes must agree with the recursive-descent parser
    on mixed corpora and reject exactly what it rejects."""
    import pyarrow as pa
    import pytest

    from georay.codecs import native, wkt
    from georay.types import GeoType

    mixed = pa.array([
        "POINT (1 2)",            # fast-lane shape
        "POINT (1.5e2 -0.25)",    # scientific
        "POINT  (1 2)",           # double space → parser path (valid)
        "POINT (1 2 3)",          # 3 ordinates vs XY target → parser error path
    ])
    # validate: first three valid, fourth raises through the parser
    with pytest.raises(Exception):
        wkt.validate(mixed)
    assert wkt.validate(pa.array(["POINT (1 2)", "POINT  (3 4)", None])) == 2

    # decode vector lane vs per-row parser on an all-fast corpus
    fast = pa.array(["POINT (1 2)", "POINT (-3.5 4.25)", "POINT (1.5e2 -0.25)"])
    a, t1 = wkt.decode(fast, GeoType.point())
    # force the per-row path by appending a non-matching (but valid) row
    slow_src = pa.array(list(fast.to_pylist()) + ["POINT  (9 9)"])
    b, t2 = wkt.decode(slow_src, GeoType.point())
    va, vb = native.view(a, t1), native.view(b, t2)
    assert np.array_equal(va.coords, vb.coords[:3])
    assert np.array_equal(vb.coords[3], [9.0, 9.0])


def test_ewkb_decode_parity():
    """EWKB high bits (reference contract: ISO *or* EWKB reader,
    src/geoarrow.c:4573-4589): Z/M flags set the dimensions, the
    embedded SRID is read and ignored, both endiannesses, and EWKB
    mixes freely with ISO features in one batch."""
    import struct

    import pyarrow as pa

    from georay.codecs import wkb

    Z, M, S = 0x80000000, 0x40000000, 0x20000000
    pt_srid = struct.pack("<BIIdd", 1, 1 | S, 4326, 1.5, 2.5)
    pt_z = struct.pack("<BIddd", 1, 1 | Z, 1.0, 2.0, 3.0)
    ls_zms = struct.pack("<BIII" + "d" * 8, 1, 2 | Z | M | S, 31370, 2,
                         0, 0, 0, 0, 1, 1, 1, 1)
    pt_be = struct.pack(">BIIdd", 0, 1 | S, 4326, 9.0, 8.0)
    iso = struct.pack("<BIdd", 1, 1, 7.0, 7.0)

    n = wkb.parse_feature(pt_srid)
    assert int(n.geom) == 1 and n.coords.tolist() == [[1.5, 2.5]]
    n = wkb.parse_feature(pt_z)
    assert n.coords.shape == (1, 3)
    n = wkb.parse_feature(ls_zms)
    assert n.coords.shape == (2, 4)
    n = wkb.parse_feature(pt_be)
    assert n.coords.tolist() == [[9.0, 8.0]]

    # validation walks EWKB features without error; garbage still raises
    assert wkb.validate(pa.array([pt_srid, pt_z, pt_be, iso], pa.binary())) == 4
    bad = struct.pack("<BIdd", 1, 5000, 0.0, 0.0)
    import pytest as _pt

    with _pt.raises(ValueError):
        wkb.parse_feature(bad)


def test_wkt_signed_inf_nan_ordinates():
    """fast_float parity: signed/case-insensitive inf, infinity and nan
    ordinates parse (the reference's from_chars accepts them)."""
    from georay.codecs import wkt as W

    n = W.parse_feature_wkt("POINT (inf -inf)")
    assert n.coords[0, 0] == float("inf") and n.coords[0, 1] == float("-inf")
    n = W.parse_feature_wkt("POINT (-Infinity NAN)")
    assert n.coords[0, 0] == float("-inf") and np.isnan(n.coords[0, 1])
    n = W.parse_feature_wkt("LINESTRING (+inf 1, 2 +nan)")
    assert n.coords[0, 0] == float("inf") and np.isnan(n.coords[1, 1])


def test_wkt_budget_abort_prefix_parity():
    """r4 reference parity (src/geoarrow.c:1484-1494 EAGAIN abort): the
    budget-aborting writer must emit EXACTLY write_node(...)[:budget]
    for every geometry type and every budget — while doing bounded work
    (giant ring aborts ~one block past the budget)."""
    from georay.codecs import wkt as W
    from georay.types import GeoType

    samples = [
        "POINT (1 2)",
        "POINT EMPTY",
        "LINESTRING (0 0, 1.5 2.25, 3 4, 5 6)",
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1))",
        "MULTIPOINT (1 2, 3 4, 5 6)",
        "MULTIPOINT ((1 2), EMPTY, (5 6))",
        "MULTILINESTRING ((0 0, 1 1), EMPTY, (2 2, 3 3))",
        "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), EMPTY, ((2 2, 3 2, 3 3, 2 2)))",
        "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1), "
        "GEOMETRYCOLLECTION (POINT (9 9)))",
        "GEOMETRYCOLLECTION EMPTY",
        "POINT ZM (1 2 3 4)",
        "LINESTRING Z (0 0 1, 2 2 2)",
    ]
    for s in samples:
        nd = W.parse_feature_wkt(s)
        full = W.write_node(nd, 16, True)
        for b in list(range(1, min(len(full) + 3, 40))) + [len(full), len(full) + 10, 1 << 20]:
            got = W.write_node_limited(nd, 16, True, b)
            assert got == full[:b], (s, b, got, full[:b])

    # giant linestring: bounded work — the sink aborts within one block
    import numpy as np

    from georay.types import Dimensions, GeometryType

    big = W.Node(
        geom=GeometryType.LINESTRING, dims=Dimensions.XY,
        coords=np.arange(2_000_000, dtype=np.float64).reshape(-1, 2),
    )
    import time

    t0 = time.perf_counter()
    small = W.write_node_limited(big, 16, True, 100)
    dt = time.perf_counter() - t0
    assert len(small) == 100
    assert dt < 0.5  # full serialization of 1M points would take seconds


def test_geojson_codec_shapes_roundtrip():
    """GeoJSON encode→decode is lossless across geometry types, XYZ,
    and empties; M raises (RFC 7946 has no M)."""
    import json

    import pytest

    from georay.codecs import geojson, wkt
    from georay.types import Dimensions, GeoType

    cases = [
        ("POINT (1.5 2.5)", GeoType.point()),
        ("POINT EMPTY", GeoType.point()),
        ("POINT Z (1 2 3)", GeoType.point(dimensions=Dimensions.XYZ)),
        ("LINESTRING (0 0, 0.1 0.2, 30 40)", GeoType.linestring()),
        ("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
         GeoType.polygon()),
        ("MULTIPOINT (30 10, 10 30)", GeoType.multipoint()),
        ("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
         GeoType.multilinestring()),
        ("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
         GeoType.multipolygon()),
    ]
    for wkt_str, geo in cases:
        arr, _ = wkt.decode(pa.array([wkt_str, None]), geo)
        js = geojson.encode(arr, geo)
        assert js[1].as_py() is None
        json.loads(js[0].as_py())  # valid JSON
        back = geojson.decode(js, geo)
        rt = wkt.encode(back, geo)
        want = wkt.encode(arr, geo)
        assert rt.to_pylist() == want.to_pylist(), wkt_str

    # a double that needs 17 significant digits survives
    x = 0.15000000000000413
    arr, _ = wkt.decode(pa.array([f"POINT ({x!r} 2)"]), GeoType.point())
    back = geojson.decode(geojson.encode(arr, GeoType.point()), GeoType.point())
    # compare via geojson text (bit-exact repr)
    assert repr(x) in geojson.encode(arr, GeoType.point())[0].as_py()
    assert repr(x) in geojson.encode(back, GeoType.point())[0].as_py()

    with pytest.raises(ValueError, match="M dimension"):
        m_geo = GeoType.point(dimensions=Dimensions.XYM)
        m_arr, _ = wkt.decode(pa.array(["POINT M (1 2 3)"]), m_geo)
        geojson.encode(m_arr, m_geo)


def test_wkb_vectorized_lane_matches_parser():
    """r5: the uniform-code vectorized WKB decode lane (per-round
    cursor walk + one 8-byte-window coord gather) must be byte-identical
    to the per-feature parser for every geometry family, including
    nulls, empties, XYZ, and the POINT→MULTI promotions; mixed-code and
    big-endian batches must bail to the parser (return None)."""
    import struct

    import georay.codecs.wkb as W
    from georay.types import Dimensions

    rng = np.random.default_rng(11)

    def wkb_poly(rings, dims=0):
        out = [b"\x01", struct.pack("<I", dims * 1000 + 3),
               struct.pack("<I", len(rings))]
        for r in rings:
            out.append(struct.pack("<I", r.shape[0]))
            out.append(r.astype("<f8").tobytes())
        return b"".join(out)

    def wkb_mpoly(polys, dims=0):
        return (b"\x01" + struct.pack("<I", dims * 1000 + 6)
                + struct.pack("<I", len(polys))
                + b"".join(wkb_poly(p, dims) for p in polys))

    def wkb_ls(c, dims=0):
        return (b"\x01" + struct.pack("<I", dims * 1000 + 2)
                + struct.pack("<I", c.shape[0]) + c.astype("<f8").tobytes())

    def ring(n, nd=2):
        c = rng.uniform(-50, 50, (n, nd))
        c[-1] = c[0]
        return c

    def compare(vals, target):
        arr = pa.array(list(vals[:3]) + [None] + list(vals[3:]),
                       pa.binary())
        fast = W._decode_uniform(arr, target)
        assert fast is not None
        nodes = [W.parse_feature(v.as_py()) if v.is_valid else None
                 for v in arr]
        assert fast.equals(W.build_native(nodes, target))

    polys = [wkb_poly([ring(rng.integers(4, 20))]
                      + ([ring(5)] if i % 3 == 0 else []))
             for i in range(40)]
    polys[7] = wkb_poly([])
    compare(polys, GeoType.polygon())
    compare(polys, GeoType.multipolygon())
    compare([wkb_poly([ring(6, 3)], dims=1) for _ in range(10)],
            GeoType.polygon(dimensions=Dimensions.XYZ))
    mpolys = [wkb_mpoly([[ring(8), ring(4)], [ring(5)]][: 1 + i % 2])
              for i in range(30)]
    mpolys[5] = wkb_mpoly([])
    compare(mpolys, GeoType.multipolygon())
    lss = [wkb_ls(rng.uniform(-50, 50, (int(rng.integers(2, 20)), 2)))
           for _ in range(30)]
    lss[3] = wkb_ls(np.empty((0, 2)))
    compare(lss, GeoType.linestring())
    compare(lss, GeoType.multilinestring())
    pts = [b"\x01" + (1).to_bytes(4, "little")
           + rng.uniform(-9, 9, 2).astype("<f8").tobytes()
           for _ in range(20)]
    compare(pts, GeoType.point())
    compare(pts, GeoType.multipoint())

    mixed = pa.array([polys[0], lss[0]], pa.binary())
    assert W._decode_uniform(mixed, GeoType.polygon()) is None
    be = b"\x00" + struct.pack(">I", 3) + struct.pack(">I", 0)
    assert W._decode_uniform(pa.array([be], pa.binary()),
                             GeoType.polygon()) is None


def test_wkt_double_formatter_fuzz():
    """r5 (VERDICT item 9): fuzz the WKT double writer across the full
    exponent range incl. subnormals. Invariants (the 10^6-double sweep
    in ROUND_NOTES found zero violations): the repr fast lane equals
    the decimal-quantize path everywhere; scientific notation exactly
    iff |x| > 1e17 (src/geoarrow.c:6331-6341 convention); and the
    output round-trips to the input whenever the shortest form needs
    ≤16 fractional digits (precision-16 fixed truncation is the
    reference behavior beyond that — NOT a bug)."""
    from georay.codecs.wkt import _format_double_fast, format_double

    rng = np.random.default_rng(99)
    bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64)
    vals = bits.view(np.float64)
    vals = vals[np.isfinite(vals)]
    m = rng.uniform(-10, 10, 15_000)
    e = rng.integers(-320, 309, 15_000)
    with np.errstate(over="ignore", under="ignore"):
        sweep = m * (10.0 ** e.astype(np.float64))
    sweep = sweep[np.isfinite(sweep)]
    spec = np.array([
        0.0, -0.0, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, 1e17, np.nextafter(1e17, np.inf),
        np.nextafter(1e17, 0), -1e17, 1.0, 0.1, 1 / 3, 1e16, 1e-16,
    ])
    for x in np.concatenate([vals, sweep, spec]):
        x = float(x)
        s = format_double(x, 16)
        assert _format_double_fast(x) == s, x
        assert ("e" in s) == (x > 1e17 or x < -1e17), (x, s)
        r = repr(abs(x))
        dot = r.find(".")
        if (
            x != 0
            and "e" not in r
            and dot >= 0
            and len(r) - dot - 1 <= 16
            and abs(x) <= 1e17
        ):
            assert float(s) == x, (x, s)


def _native_eq_nan(a, b):
    """NaN-tolerant structural equality (Arrow equals treats NaN!=NaN)."""
    if a.type != b.type or len(a) != len(b):
        return False
    sa = a.storage if isinstance(a, pa.ExtensionArray) else a
    sb = b.storage if isinstance(b, pa.ExtensionArray) else b

    def walk(x, y):
        if x.null_count != y.null_count:
            return False
        if x.null_count and not x.is_valid().equals(y.is_valid()):
            return False
        t = x.type
        if pa.types.is_list(t):
            if not x.offsets.equals(y.offsets):
                return False
            return walk(x.flatten(), y.flatten())
        if pa.types.is_struct(t):
            return all(
                walk(x.field(i), y.field(i)) for i in range(t.num_fields)
            )
        if pa.types.is_float64(t):
            xv = x.to_numpy(zero_copy_only=False)
            yv = y.to_numpy(zero_copy_only=False)
            return bool(
                np.array_equal(xv.view(np.uint64), yv.view(np.uint64))
            )
        return x.equals(y)

    return walk(sa, sb)


def test_wkt_vectorized_lane_matches_parser():
    """r5: the uniform canonical-form vectorized WKT decode lane
    (paren-depth scan + one C float sweep) must be bit-identical to
    the recursive-descent parser for every non-point XY family incl.
    nulls, EMPTYs, multi-ring/part, and nan/inf/scientific numerics;
    Z/M, lowercase, nested MULTIPOINT, trailing junk and malformed
    nesting must bail (return None) so the parser raises precisely."""
    import georay.codecs.wkt as W

    rng = np.random.default_rng(3)

    def pts(n):
        return rng.uniform(-80, 80, (n, 2)).round(4)

    def ring(n):
        c = pts(n)
        c[-1] = c[0]
        return c

    def poly_wkt(rings):
        if not rings:
            return "POLYGON EMPTY"
        return "POLYGON (" + ", ".join(
            "(" + ", ".join(f"{x} {y}" for x, y in r) + ")" for r in rings
        ) + ")"

    def ls_wkt(c):
        if len(c) == 0:
            return "LINESTRING EMPTY"
        return "LINESTRING (" + ", ".join(
            f"{x} {y}" for x, y in c
        ) + ")"

    def compare(vals, target):
        arr = pa.array(list(vals[:2]) + [None] + list(vals[2:]),
                       pa.string())
        fast = W._decode_uniform_wkt(arr, target)
        assert fast is not None
        nodes = [
            W.parse_feature_wkt(v.as_py()) if v.is_valid else None
            for v in arr
        ]
        from georay.codecs.wkb import build_native

        assert _native_eq_nan(fast, build_native(nodes, target))

    polys = [
        poly_wkt([ring(int(rng.integers(4, 10)))]
                 + ([ring(4)] if i % 3 == 0 else []))
        for i in range(30)
    ]
    polys[5] = "POLYGON EMPTY"
    compare(polys, GeoType.polygon())
    lss = [ls_wkt(pts(int(rng.integers(2, 12)))) for _ in range(30)]
    lss[3] = "LINESTRING EMPTY"
    compare(lss, GeoType.linestring())
    compare(
        ["MULTIPOINT (1 2, 3.5 -4)", "MULTIPOINT EMPTY",
         "MULTIPOINT (0 0)"],
        GeoType.multipoint(),
    )
    compare(
        ["MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))",
         "MULTILINESTRING EMPTY", "MULTILINESTRING ((5 5, 6 6))"],
        GeoType.multilinestring(),
    )
    compare(
        ["MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((2 2, 3 2, 3 3, 2 2), "
         "(2.2 2.2, 2.8 2.2, 2.8 2.8, 2.2 2.2)))",
         "MULTIPOLYGON EMPTY",
         "MULTIPOLYGON (((9 9, 10 9, 10 10, 9 9)))"],
        GeoType.multipolygon(),
    )
    compare(
        ["LINESTRING (-1.5e-3 2E4, nan inf, -inf -0)",
         "LINESTRING (0 0, 1 1)"],
        GeoType.linestring(),
    )

    for bad, tgt in [
        ("POLYGON Z ((0 0 1, 1 1 1, 2 0 1, 0 0 1))", GeoType.polygon()),
        ("MULTIPOINT ((1 2), (3 4))", GeoType.multipoint()),
        ("polygon ((0 0, 1 1, 2 0, 0 0))", GeoType.polygon()),
        ("LINESTRING (0 0), 5 5", GeoType.linestring()),
        ("LINESTRING (0 0, 1 1) junk", GeoType.linestring()),
        ("POLYGON ((0 0, 1 1, 2 0, 0 0)", GeoType.polygon()),
    ]:
        assert W._decode_uniform_wkt(pa.array([bad], pa.string()),
                                     tgt) is None, bad


def test_wkt_vectorized_encode_matches_writer():
    """r5: the Arrow-kernel WKT ENCODE lane must be byte-identical to
    the per-feature writer for every family, incl. EMPTY features,
    EMPTY children (MLS child → 'EMPTY', ringless multipolygon child →
    'EMPTY', polygon empty ring → '()'), nulls, and hostile numerics
    that exercise the per-value formatter fallback; NaN multipoint
    children (nested form) bail."""
    import georay.codecs.wkt as W
    from georay.codecs.wkb import Node, build_native

    rng = np.random.default_rng(9)
    XY = Dimensions.XY

    def ring(n):
        c = rng.uniform(-80, 80, (n, 2))
        c[-1] = c[0]
        return c

    def compare(nodes, geo):
        arr = build_native(nodes, geo)
        fast = W._encode_uniform_wkt(arr, geo, True)
        assert fast is not None
        slow = [
            None if nd is None else W.write_node(nd, 16, True)
            for nd in W.nodes_from_native(arr, geo)
        ]
        assert fast.to_pylist() == slow

    polys = [Node(GeometryType.POLYGON, XY,
                  rings=[ring(5)] + ([ring(4)] if i % 3 == 0 else []))
             for i in range(20)]
    polys[5] = Node(GeometryType.POLYGON, XY, rings=[])
    polys[9] = None
    compare(polys, GeoType.polygon())
    mls = [Node(GeometryType.MULTILINESTRING, XY, children=[
        Node(GeometryType.LINESTRING, XY,
             coords=rng.uniform(-9, 9, (3, 2)))])
        for _ in range(6)]
    mls[2] = Node(GeometryType.MULTILINESTRING, XY,
                  children=[Node(GeometryType.LINESTRING, XY,
                                 coords=np.empty((0, 2)))])
    compare(mls, GeoType.multilinestring())
    mpoly = [Node(GeometryType.MULTIPOLYGON, XY, children=[
        Node(GeometryType.POLYGON, XY, rings=[ring(4)])])
        for _ in range(6)]
    mpoly[1] = Node(GeometryType.MULTIPOLYGON, XY,
                    children=[Node(GeometryType.POLYGON, XY, rings=[])])
    compare(mpoly, GeoType.multipolygon())
    odd = [Node(GeometryType.LINESTRING, XY, coords=np.array([
        [1e18, -2.5e17], [1.5e16, 0.13165356661859023],
        [-0.0, 5e-324], [np.nan, np.inf], [-np.inf, 1e-17]]))]
    compare(odd, GeoType.linestring())
    pts = [Node(GeometryType.POINT, XY,
                coords=np.array([[np.nan, np.nan]])),
           Node(GeometryType.POINT, XY, coords=np.array([[1.5, -2.0]])),
           None]
    compare(pts, GeoType.point())
    mp_nan = build_native(
        [Node(GeometryType.MULTIPOINT, XY, children=[
            Node(GeometryType.POINT, XY,
                 coords=np.array([[np.nan, np.nan]]))])],
        GeoType.multipoint(),
    )
    assert W._encode_uniform_wkt(mp_nan, GeoType.multipoint(), True) is None

    # formatter fuzz: the Arrow cast + fallback must equal
    # format_double over the full exponent range
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64)
    xs = bits.view(np.float64)
    xs = xs[np.isfinite(xs)]
    xs = np.concatenate([xs, [0.0, -0.0, 1e15, 1e16, 1e17,
                              np.nextafter(1e17, np.inf), 5e-324]])
    got = W._format_doubles_arrow(xs).to_pylist()
    for x, g in zip(xs, got):
        assert g == W.format_double(float(x), 16), (x, g)


def test_wkt_fast_lane_null_slot_garbage():
    """Bytes under a NULL slot are arbitrary: balanced-paren garbage
    there (before the first valid feature, so the lane's span lookup
    would land at index -1) must neither crash the uniform WKT lane nor
    change the valid rows."""
    import pyarrow as pa

    from georay.codecs import native, wkt
    from georay.types import GeoType

    rows = [
        "((9 9)) ((,)) 7",  # under a NULL slot
        "POLYGON ((0 0, 1 0, 1 1, 0 0))",
        "POLYGON ((2 2, 3 2, 3 3, 2 2), (2.1 2.1, 2.2 2.1, 2.2 2.2, 2.1 2.1))",
    ]
    data = "".join(rows).encode()
    offsets = np.cumsum([0] + [len(r.encode()) for r in rows]).astype(np.int32)
    validity = pa.py_buffer(np.packbits([0, 1, 1], bitorder="little").tobytes())
    dirty = pa.Array.from_buffers(
        pa.string(), 3, [validity, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)], 1
    )
    clean = pa.array([None] + rows[1:], pa.string())
    a, ta = wkt.decode(dirty, GeoType.polygon())
    b, tb = wkt.decode(clean, GeoType.polygon())
    assert a.null_count == 1 and not a.is_valid()[0].as_py()
    assert np.array_equal(native.view(a, ta).coords, native.view(b, tb).coords)
    assert a.equals(b)
