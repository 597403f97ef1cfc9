"""Hierarchical cell indexes — the engine's spatial partitioning keys.

Three coordinate-to-key systems, all pure vectorized NumPy (no external
geo libraries exist in this environment, per SURVEY.md preamble):

1. **S2-style cube-face cell id** (``cell_from_lonlat``): lon/lat → unit
   sphere → one of 6 cube faces → quadratic (u,v)→(s,t) projection →
   Morton-interleaved 60-bit position. The 64-bit id layout follows the
   public S2 scheme (3 face bits, 2·level position bits, a sentinel ``1``
   bit, trailing zeros) so that **parent = prefix** and every level-L cell
   owns a contiguous id range — the property the join/tiling layer keys
   on. Level 15 ≈ 1.3 km² per cell ≈ H3 res-9 scale (north-rule target).
   Hilbert ordering is not required for prefix containment; Morton keeps
   the kernel branch-free.

2. **Equirectangular grid cell** (``grid_cell``): degree-resolution grid
   whose encoding is ANSI-SQL floor arithmetic, used for the DuckDB
   correctness oracle and for planar kNN ring expansion (ring k covers
   every point within ``k·res`` planar degrees — an exact stopping bound).

3. **Web-mercator XYZ tile** (``mercator_tile``): standard slippy-map
   z/x/y for the raster↔vector assignment stage.

Geometry semantics (planar edges, XY doubles) follow the reference's
planar-only kernel precedent (/root/reference/src/geoarrow.c:1746-1750).
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 30
DEFAULT_LEVEL = 15  # ≈1.3 km² per cell: the H3-res-9-equivalent working level

_U64 = np.uint64


def _u64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.uint64)


# ----------------------------------------------------------------- Morton

def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each uint64 into even bit positions."""
    x = x & _U64(0xFFFFFFFF)
    x = (x | (x << _U64(16))) & _U64(0x0000FFFF0000FFFF)
    x = (x | (x << _U64(8))) & _U64(0x00FF00FF00FF00FF)
    x = (x | (x << _U64(4))) & _U64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << _U64(2))) & _U64(0x3333333333333333)
    x = (x | (x << _U64(1))) & _U64(0x5555555555555555)
    return x


def _compact_bits(x: np.ndarray) -> np.ndarray:
    """Inverse of _spread_bits: gather even bit positions into low 32 bits."""
    x = x & _U64(0x5555555555555555)
    x = (x | (x >> _U64(1))) & _U64(0x3333333333333333)
    x = (x | (x >> _U64(2))) & _U64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> _U64(4))) & _U64(0x00FF00FF00FF00FF)
    x = (x | (x >> _U64(8))) & _U64(0x0000FFFF0000FFFF)
    x = (x | (x >> _U64(16))) & _U64(0x00000000FFFFFFFF)
    return x


# ------------------------------------------------------- sphere <-> face/uv

def _lonlat_to_xyz(lon_deg: np.ndarray, lat_deg: np.ndarray):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    cl = np.cos(lat)
    return cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)


def _xyz_to_face_uv(x, y, z):
    """Dominant-axis cube face + gnomonic (u, v), public S2 face layout."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(
        (ax >= ay) & (ax >= az),
        np.where(x >= 0, 0, 3),
        np.where(ay >= az, np.where(y >= 0, 1, 4), np.where(z >= 0, 2, 5)),
    ).astype(np.int64)
    u = np.empty_like(x)
    v = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for f, (ufn, vfn) in _FACE_UV.items():
            m = face == f
            if np.any(m):
                u[m] = ufn(x[m], y[m], z[m])
                v[m] = vfn(x[m], y[m], z[m])
    return face, u, v


_FACE_UV = {
    0: (lambda x, y, z: y / x, lambda x, y, z: z / x),
    1: (lambda x, y, z: -x / y, lambda x, y, z: z / y),
    2: (lambda x, y, z: -x / z, lambda x, y, z: -y / z),
    3: (lambda x, y, z: z / x, lambda x, y, z: y / x),
    4: (lambda x, y, z: z / y, lambda x, y, z: -x / y),
    5: (lambda x, y, z: -y / z, lambda x, y, z: -x / z),
}


def _face_uv_to_xyz(face: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Inverse of _xyz_to_face_uv (unnormalized direction vector)."""
    x = np.empty_like(u)
    y = np.empty_like(u)
    z = np.empty_like(u)
    one = np.ones_like(u)
    specs = {
        0: (one, u, v),
        1: (-u, one, v),
        2: (-u, -v, one),
        3: (-one, -v, -u),
        4: (v, -one, -u),
        5: (v, u, -one),
    }
    for f, (xs, ys, zs) in specs.items():
        m = face == f
        if np.any(m):
            x[m], y[m], z[m] = xs[m], ys[m], zs[m]
    return x, y, z


def _uv_to_st(u: np.ndarray) -> np.ndarray:
    """S2 quadratic projection — evens out gnomonic area distortion."""
    with np.errstate(invalid="ignore"):
        return np.where(
            u >= 0, 0.5 * np.sqrt(1.0 + 3.0 * u), 1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u)
        )


def _st_to_uv(s: np.ndarray) -> np.ndarray:
    """Inverse quadratic; monotonic outside [0,1] too (used by ring math)."""
    return np.where(
        s >= 0.5,
        (1.0 / 3.0) * (4.0 * s * s - 1.0),
        (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s)),
    )


# ------------------------------------------------------------- cell codec

def cell_from_lonlat(lon_deg, lat_deg, level: int = DEFAULT_LEVEL) -> np.ndarray:
    """Encode lon/lat (degrees) to S2-style uint64 cell ids at ``level``.

    NaN inputs (empty points, per the reference's all-NaN-is-empty rule,
    /root/reference/src/r-wk-handle-stream.cc:195-222) encode to 0, which
    is never a valid cell id (valid ids always carry the sentinel bit).
    """
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    bad = ~(np.isfinite(lon) & np.isfinite(lat))
    x, y, z = _lonlat_to_xyz(np.where(bad, 0.0, lon), np.where(bad, 0.0, lat))
    face, u, v = _xyz_to_face_uv(x, y, z)
    ids = _encode_face_ij(
        face,
        _st_to_ij(_uv_to_st(u), level),
        _st_to_ij(_uv_to_st(v), level),
        level,
    )
    return np.where(bad, _U64(0), ids)


def _st_to_ij(s: np.ndarray, level: int) -> np.ndarray:
    n = 1 << level
    return np.clip(np.floor(s * n), 0, n - 1).astype(np.int64)


def _encode_face_ij(face, i, j, level: int) -> np.ndarray:
    pos = (_spread_bits(_u64(i)) << _U64(1)) | _spread_bits(_u64(j))  # 2*level bits
    shift = _U64(61 - 2 * level)
    sentinel = _U64(1) << _U64(60 - 2 * level)
    return (_u64(face) << _U64(61)) | (pos << shift) | sentinel


def cell_to_face_ij(ids: np.ndarray, level: int):
    ids = _u64(ids)
    face = (ids >> _U64(61)).astype(np.int64)
    pos = (ids >> _U64(61 - 2 * level)) & ((_U64(1) << _U64(2 * level)) - _U64(1))
    i = _compact_bits(pos >> _U64(1)).astype(np.int64)
    j = _compact_bits(pos).astype(np.int64)
    return face, i, j


def cell_level(ids: np.ndarray) -> np.ndarray:
    """Level from the sentinel (lowest set) bit."""
    ids = _u64(ids)
    lsb = ids & (~ids + _U64(1))
    # count trailing zeros via float64 exponent trick (exact for 2^k)
    tz = (np.frexp(lsb.astype(np.float64))[1] - 1).astype(np.int64)
    return (60 - tz) // 2


def cell_parent(ids: np.ndarray, parent_level: int) -> np.ndarray:
    """Truncate to the ancestor at ``parent_level`` (prefix containment)."""
    ids = _u64(ids)
    sentinel = _U64(1) << _U64(60 - 2 * parent_level)
    return (ids & ~((sentinel << _U64(1)) - _U64(1))) | sentinel


def cell_range(ids: np.ndarray):
    """(lo, hi) inclusive id range of all descendants at any deeper level."""
    ids = _u64(ids)
    lsb = ids & (~ids + _U64(1))
    return ids - (lsb - _U64(1)), ids + (lsb - _U64(1))


def cell_center_lonlat(ids: np.ndarray, level: int):
    face, i, j = cell_to_face_ij(ids, level)
    n = float(1 << level)
    u = _st_to_uv((i.astype(np.float64) + 0.5) / n)
    v = _st_to_uv((j.astype(np.float64) + 0.5) / n)
    x, y, z = _face_uv_to_xyz(face, u, v)
    r = np.sqrt(x * x + y * y + z * z)
    lat = np.degrees(np.arcsin(z / r))
    lon = np.degrees(np.arctan2(y, x))
    return lon, lat


def cell_token(ids: np.ndarray) -> np.ndarray:
    """Hex token (leading-zero-padded, trailing zeros stripped like S2)."""
    ids = np.atleast_1d(_u64(ids))
    out = np.array([format(int(i), "016x").rstrip("0") or "0" for i in ids])
    return out


def cell_disk(ids: np.ndarray, level: int, k: int = 1) -> np.ndarray:
    """The (2k+1)² neighborhood of each cell, shape (n, (2k+1)²).

    In-face neighbors encode directly from (i±di, j±dj); offsets that walk
    off the face edge are re-projected through continuous (face, u, v) →
    xyz → re-encode, which lands them on the adjacent face. Corner-region
    results are approximate (may contain a duplicate of the center ring)
    — callers dedup; kNN re-verifies with exact distances.
    """
    ids = np.atleast_1d(_u64(ids))
    face, i, j = cell_to_face_ij(ids, level)
    nside = 1 << level
    offs = [(di, dj) for di in range(-k, k + 1) for dj in range(-k, k + 1)]
    n = ids.shape[0]
    out = np.empty((n, len(offs)), dtype=np.uint64)
    fn = float(nside)
    for c, (di, dj) in enumerate(offs):
        ii = i + di
        jj = j + dj
        inside = (ii >= 0) & (ii < nside) & (jj >= 0) & (jj < nside)
        enc = _encode_face_ij(face, np.clip(ii, 0, nside - 1), np.clip(jj, 0, nside - 1), level)
        if not np.all(inside):
            m = ~inside
            u = _st_to_uv((ii[m].astype(np.float64) + 0.5) / fn)
            v = _st_to_uv((jj[m].astype(np.float64) + 0.5) / fn)
            x, y, z = _face_uv_to_xyz(face[m], u, v)
            f2, u2, v2 = _xyz_to_face_uv(x, y, z)
            enc[m] = _encode_face_ij(
                f2, _st_to_ij(_uv_to_st(u2), level), _st_to_ij(_uv_to_st(v2), level), level
            )
        out[:, c] = enc
    return out


def to_i64(ids: np.ndarray) -> np.ndarray:
    """Bit-reinterpret uint64 cell ids as int64 for storage in Dataset
    columns (Ray Data's shuffle cannot ship uint64 > int64-max; two's
    complement preserves equality, and any descendant range shares its
    parent's face bits so sign never flips within a range)."""
    return np.asarray(ids, dtype=np.uint64).view(np.int64)


def to_u64(ids: np.ndarray) -> np.ndarray:
    return np.asarray(ids, dtype=np.int64).view(np.uint64)


# ------------------------------------------------------ equirect grid cells

GRID_MULT = 100_000  # gy < 18000 for res ≥ 0.01° — safe multiplier


GRID_NULL = np.int64(np.iinfo(np.int64).min)  # sentinel for null/empty points


def grid_cell(lon_deg, lat_deg, res_deg: float) -> np.ndarray:
    """SQL-oracle-friendly grid key:
    ``floor((lon+180)/res)*100000 + floor((lat+90)/res)`` (int64).

    Matches the ANSI-SQL expression used by ``oracle_sql`` exactly for
    finite coordinates. Non-finite lon/lat (null/empty points, which SQL
    would group under NULL) map to the explicit ``GRID_NULL`` sentinel
    instead of an undefined NaN→int cast; callers filter or keep it as
    the null bucket.
    """
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    ok = np.isfinite(lon) & np.isfinite(lat)
    if bool(np.all(ok)):
        gx = np.floor((lon + 180.0) / res_deg).astype(np.int64)
        gy = np.floor((lat + 90.0) / res_deg).astype(np.int64)
        return gx * GRID_MULT + gy
    gx = np.floor((np.where(ok, lon, 0.0) + 180.0) / res_deg).astype(np.int64)
    gy = np.floor((np.where(ok, lat, 0.0) + 90.0) / res_deg).astype(np.int64)
    return np.where(ok, gx * GRID_MULT + gy, GRID_NULL)


def grid_cell_wrapped(lon_deg, lat_deg, res_deg: float) -> np.ndarray:
    """``grid_cell`` for finite reference points, folded into the grid that
    ``grid_disk`` and the bbox covers can reach: the column wraps modulo
    ``nx = ceil(360/res)`` (lon = 180 is lon = −180) and the row clamps to
    ``ny − 1`` (lat = 90 joins the top row). Plain ``grid_cell`` puts such
    points in column ``nx`` / row ``ny``, which no probe disk ever visits."""
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    nx = int(np.ceil(360.0 / res_deg))
    ny = int(np.ceil(180.0 / res_deg))
    gx = np.floor((lon + 180.0) / res_deg).astype(np.int64) % nx
    gy = np.clip(np.floor((lat + 90.0) / res_deg), 0, ny - 1).astype(np.int64)
    return gx * GRID_MULT + gy


def grid_disk(cells: np.ndarray, k: int, nx: int) -> np.ndarray:
    """(2k+1)² neighborhood of grid cells; lon wraps modulo ``nx`` columns.

    ``nx = ceil(360/res)``. Latitude rows do not wrap (poles); offsets out
    of range are kept (they simply match nothing).
    """
    cells = np.atleast_1d(np.asarray(cells, dtype=np.int64))
    gx = cells // GRID_MULT
    gy = cells % GRID_MULT
    offs = [(dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1)]
    out = np.empty((cells.shape[0], len(offs)), dtype=np.int64)
    for c, (dx, dy) in enumerate(offs):
        out[:, c] = ((gx + dx) % nx) * GRID_MULT + (gy + dy)
    return out


# ------------------------------------------------------- web-mercator tiles

MERCATOR_MAX_LAT = 85.05112877980659


def mercator_tile(lon_deg, lat_deg, zoom: int):
    """Standard slippy-map tile (tx, ty) at ``zoom``.

    Formulated as ``floor((1 - ln(tan(lat) + 1/cos(lat))/pi)/2 * 2^z)`` so
    the DuckDB oracle can use the identical expression (no asinh).
    """
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.clip(np.asarray(lat_deg, dtype=np.float64), -MERCATOR_MAX_LAT, MERCATOR_MAX_LAT)
    n = float(1 << zoom)
    with np.errstate(invalid="ignore"):
        fx = np.floor((lon + 180.0) / 360.0 * n)
        latr = np.radians(lat)
        fy = np.floor((1.0 - np.log(np.tan(latr) + 1.0 / np.cos(latr)) / np.pi) / 2.0 * n)
        # NaN coords (null/empty points) → tile 0 (callers track validity)
        tx = np.where(np.isfinite(fx), fx, 0.0).astype(np.int64)
        ty = np.where(np.isfinite(fy), fy, 0.0).astype(np.int64)
    np.clip(tx, 0, (1 << zoom) - 1, out=tx)
    np.clip(ty, 0, (1 << zoom) - 1, out=ty)
    return tx, ty


def tile_bounds(tx, ty, zoom: int):
    """(xmin, ymin, xmax, ymax) lon/lat bounds of slippy tiles."""
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    n = float(1 << zoom)
    xmin = tx / n * 360.0 - 180.0
    xmax = (tx + 1.0) / n * 360.0 - 180.0

    def lat_of(yy):
        return np.degrees(np.arctan(np.sinh(np.pi * (1.0 - 2.0 * yy / n))))

    ymax = lat_of(ty)
    ymin = lat_of(ty + 1.0)
    return xmin, ymin, xmax, ymax


def tile_from_key(key: np.ndarray):
    """Invert tile_key → (zoom, tx, ty)."""
    key = np.asarray(key, dtype=np.int64)
    zoom = key >> np.int64(58)
    tx = (key >> np.int64(29)) & np.int64((1 << 29) - 1)
    ty = key & np.int64((1 << 29) - 1)
    return zoom, tx, ty


def tile_key(tx: np.ndarray, ty: np.ndarray, zoom: int) -> np.ndarray:
    """Single int64 key ``(zoom << 58) | (tx << 29) | ty`` (zoom ≤ 29)."""
    return (
        (np.int64(zoom) << np.int64(58))
        | (np.asarray(tx, dtype=np.int64) << np.int64(29))
        | np.asarray(ty, dtype=np.int64)
    )


# ------------------------------------------------------------- geohash

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_GH_BYTES = np.frombuffer(GEOHASH_ALPHABET.encode(), dtype=np.uint8)


def geohash(lon_deg, lat_deg, precision: int = 6) -> np.ndarray:
    """Standard base32 geohash strings, fully vectorized (one interleave
    + one (n, p) byte-matrix view per call; no per-row Python). Even
    ``precision`` only (equal lon/lat bit counts — keeps the SQL replica
    a single Morton OR-chain). Non-finite coords → the all-'0' cell.

    The arithmetic (floor-scale → clamp → Morton interleave MSB-first
    lon-first → base32) is replicated digit-for-digit by
    ``tpch._geohash_sql`` for the DuckDB oracle.
    """
    if precision % 2 or not (0 < precision <= 12):
        raise ValueError("precision must be even, in (0, 12]")
    bits = 5 * precision // 2  # per axis
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    ok = np.isfinite(lon) & np.isfinite(lat)
    scale = np.int64(1) << np.int64(bits)
    ix = np.floor((np.where(ok, lon, -180.0) + 180.0) / 360.0 * scale).astype(np.int64)
    iy = np.floor((np.where(ok, lat, -90.0) + 90.0) / 180.0 * scale).astype(np.int64)
    ix = np.clip(ix, 0, scale - 1)
    iy = np.clip(iy, 0, scale - 1)
    v = np.zeros(lon.shape, dtype=np.int64)
    for b in range(bits):
        v |= ((ix >> b) & 1) << (2 * b + 1)
        v |= ((iy >> b) & 1) << (2 * b)
    n = lon.shape[0]
    chars = np.empty((n, precision), dtype=np.uint8)
    for i in range(precision):
        chars[:, i] = _GH_BYTES[(v >> (5 * (precision - 1 - i))) & 31]
    chars[~ok] = _GH_BYTES[0]
    flat = chars.reshape(-1)
    import pyarrow as _pa

    offs = np.arange(0, (n + 1) * precision, precision, dtype=np.int32)
    return _pa.StringArray.from_buffers(
        n, _pa.py_buffer(offs.tobytes()), _pa.py_buffer(flat.tobytes())
    )


def geohash_ij(lon_deg, lat_deg, precision: int = 6):
    """The geohash cell's integer ``(ix, iy)`` on its 2^bits × 2^bits
    grid — the arithmetic core of ``geohash`` (identical floor-scale +
    clamp) WITHOUT the base32 rendering, for neighbor math and SQL
    replicas. ``bits = 5·precision/2`` per axis (even precision only,
    like ``geohash``). Non-finite coords map to cell (0, 0) — the same
    all-'0' bucket the string encoder uses."""
    if precision % 2 or not (0 < precision <= 12):
        raise ValueError("precision must be even, in (0, 12]")
    bits = 5 * precision // 2
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    ok = np.isfinite(lon) & np.isfinite(lat)
    scale = np.int64(1) << np.int64(bits)
    ix = np.floor((np.where(ok, lon, -180.0) + 180.0) / 360.0 * scale).astype(np.int64)
    iy = np.floor((np.where(ok, lat, -90.0) + 90.0) / 180.0 * scale).astype(np.int64)
    return np.clip(ix, 0, scale - 1), np.clip(iy, 0, scale - 1)


def geohash_neighbors(ix: np.ndarray, iy: np.ndarray, precision: int = 6):
    """The 8 Moore neighbors of each geohash grid cell: longitude WRAPS
    modulo the grid width (geohash columns are circular), latitude does
    NOT (rows beyond the poles are dropped). Returns ``(owner, nix,
    niy)`` flat arrays — owner is the input row index, ragged because
    polar rows have 5 neighbors. The B4 ring primitive for the fourth
    cell system (s2 rings, hex disks, grid disks being the others)."""
    bits = 5 * precision // 2
    n = np.int64(1) << np.int64(bits)
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    offs = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)]
    owners, nxs, nys = [], [], []
    for dx, dy in offs:
        jx = (ix + dx) % n
        jy = iy + dy
        keep = (jy >= 0) & (jy < n)
        owners.append(np.nonzero(keep)[0])
        nxs.append(jx[keep])
        nys.append(jy[keep])
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return (owner[order],
            np.concatenate(nxs)[order],
            np.concatenate(nys)[order])


def hex_cell(x, y, size: float) -> np.ndarray:
    """Pointy-top HEXAGONAL bin id (H3-style axial coordinates, the
    4th cell system — hexes are the movement-analytics standard because
    all 6 neighbors are equidistant, unlike squares). Planar (x, y) →
    fractional axial (q, r) → cube rounding (round each of q, r,
    s = −q−r to the nearest integer, then fix the axis with the largest
    rounding error so q+r+s == 0 — the classic exact algorithm) →
    packed int64 ``(q+OFF) * 2^21 + (r+OFF)``.

    Every float step is written as the SAME IEEE-754 expression the SQL
    twin uses (sqrt(3)/3 constant folded identically, floor(v+0.5)
    rounding instead of round-half-even), so numpy and DuckDB quantize
    boundary points to the same hex bit-for-bit — the same discipline as
    the geohash/S2 oracles. Non-finite coords → id −1."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ok = np.isfinite(x) & np.isfinite(y)
    xs = np.where(ok, x, 0.0)
    ys = np.where(ok, y, 0.0)
    k = np.sqrt(3.0) / 3.0
    qf = (k * xs - ys / 3.0) / size
    rf = (ys * (2.0 / 3.0)) / size
    sf = -qf - rf
    rq = np.floor(qf + 0.5)
    rr = np.floor(rf + 0.5)
    rs = np.floor(sf + 0.5)
    dq = np.abs(rq - qf)
    dr = np.abs(rr - rf)
    ds = np.abs(rs - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    rq = np.where(fix_q, -rr - rs, rq)
    rr = np.where(fix_r, -rq - rs, rr)
    OFF = np.int64(1 << 20)
    qid = rq.astype(np.int64) + OFF
    rid = rr.astype(np.int64) + OFF
    out = qid * np.int64(1 << 21) + rid
    return np.where(ok, out, np.int64(-1))


def hex_disk(ids: np.ndarray, k: int = 1) -> np.ndarray:
    """All hex ids within hex-grid distance ``k`` of each input id
    (the (2k+1)²−k(k+1) axial disk, |dq|≤k, |dr|≤k, |dq+dr|≤k) —
    the ring-expansion primitive for hex kNN. Returns (n, cells)
    int64."""
    OFF = np.int64(1 << 20)
    B = np.int64(1 << 21)
    q = ids // B - OFF
    r = ids % B - OFF
    dq, dr = np.meshgrid(
        np.arange(-k, k + 1, dtype=np.int64),
        np.arange(-k, k + 1, dtype=np.int64),
        indexing="ij",
    )
    keep = np.abs(dq + dr) <= k
    dq, dr = dq[keep], dr[keep]
    qq = q[:, None] + dq[None, :]
    rr = r[:, None] + dr[None, :]
    return (qq + OFF) * B + (rr + OFF)
