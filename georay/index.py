"""Broadcastable spatial indexes for the join stages.

Both indexes are built once (driver or a single Ray task), shipped to the
object store with ``exchange.broadcast``, and fetched once per worker
process by the probe tasks — the broadcast-hash-join pattern: no
shuffle of the big side, the small side moves once per worker
(SURVEY.md §2.B5/B6).

All lookups are CSR (sorted keys + offsets + values) so probe batches
resolve with one ``np.searchsorted`` — no Python dict in the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from georay import cells
from georay.codecs import native
from georay.types import GeometryType, GeoType


def _ragged_ranges(counts: np.ndarray):
    """(owner, within): flat enumeration of ``counts[i]`` items per i.

    marker+cumsum instead of ``np.repeat`` for owner — ~5× faster on this
    hardware for multi-million-element expansions."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.shape[0] else 0
    starts = ends - counts
    owner = np.zeros(total, dtype=np.int64)
    # one marker per run boundary; empty runs collapse onto the same
    # position and their markers accumulate, which skips their indices
    marks = starts[1:][starts[1:] < total]
    if marks.size:
        np.add.at(owner, marks, 1)
    np.cumsum(owner, out=owner)
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return owner, within


def _cover_bboxes_grid(bbox: np.ndarray, ok: np.ndarray, res: float):
    """(grid_keys, poly_indices): EXACT equirect-grid cover of each valid
    bbox — pure floor arithmetic (same key function the probe side uses),
    longitude columns wrapped modulo nx. No sampling, no misses."""
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    nx = int(np.ceil(360.0 / res))
    ny = int(np.ceil(180.0 / res))
    gx0 = np.floor((bbox[idx, 0] + 180.0) / res).astype(np.int64)
    gx1 = np.floor((bbox[idx, 2] + 180.0) / res).astype(np.int64)
    gy0 = np.clip(np.floor((bbox[idx, 1] + 90.0) / res), 0, ny - 1).astype(np.int64)
    gy1 = np.clip(np.floor((bbox[idx, 3] + 90.0) / res), 0, ny - 1).astype(np.int64)
    w = gx1 - gx0 + 1
    h = gy1 - gy0 + 1
    sizes = w * h
    owner, within = _ragged_ranges(sizes)
    wr = w[owner]
    gx = (gx0[owner] + within % wr) % nx
    gy = gy0[owner] + within // wr
    keys = gx * cells.GRID_MULT + gy
    return keys, idx[owner]


def _csr_from_pairs(keys: np.ndarray, values: np.ndarray):
    """(sorted unique keys, offsets, values grouped by key)."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    vs = values[order]
    uniq, starts = np.unique(ks, return_index=True)
    offsets = np.append(starts, ks.shape[0])
    return uniq, offsets, vs


def csr_lookup(uniq: np.ndarray, offsets: np.ndarray, vs: np.ndarray, probe: np.ndarray):
    """For each probe key → (probe_idx, value) pair arrays."""
    pos = np.searchsorted(uniq, probe)
    pos = np.clip(pos, 0, len(uniq) - 1) if len(uniq) else np.zeros_like(pos)
    hit = len(uniq) > 0
    found = hit & (uniq[pos] == probe) if hit else np.zeros(len(probe), bool)
    if not np.any(found):
        return np.empty(0, np.int64), np.empty(0, vs.dtype if len(vs) else np.int64)
    pidx = np.nonzero(found)[0]
    p = pos[pidx]
    counts = offsets[p + 1] - offsets[p]
    out_probe = np.repeat(pidx, counts)
    # gather value ranges: start offsets repeated + intra-range arange
    starts = np.repeat(offsets[p], counts)
    within = np.arange(counts.sum()) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    out_vals = vs[starts + within]
    return out_probe, out_vals


def _first_match(pidx, poly, lon, lat, pip_pairs):
    """First matching polygon per point, -1 when none, in doubling rank
    waves.

    ``(pidx, poly)`` are candidate pairs in probe-major order with the
    polygon index ascending within each probe; ``pip_pairs`` is the
    exact test (``PolygonIndex._pip_pairs``). A pair's rank is its
    position within its probe. Wave 0 tests rank 0 and wave ``w`` tests
    ranks ``[2**(w-1), 2**w)``, each wave only for points with no hit
    yet, so the first hit a point gets is its lowest-rank (lowest
    polygon index) match. With R the largest candidate count of any
    point, ``pip_pairs`` runs at most ceil(log2 R) + 1 times and tests at
    most about twice the pairs a rank-by-rank probe would.
    """
    first = np.full(lon.shape[0], -1, dtype=np.int64)
    if pidx.size == 0:
        return first
    counts = np.bincount(pidx)
    _, rank = _ragged_ranges(counts)
    r_max = int(counts.max())
    lo, hi = 0, 1
    while lo < r_max:
        sel = np.nonzero((rank >= lo) & (rank < hi) & (first[pidx] < 0))[0]
        if sel.size:
            hit = pip_pairs(pidx[sel], poly[sel], lon, lat)
            hp, hpoly = pidx[sel[hit]], poly[sel[hit]]
            lead = np.ones(hp.shape[0], dtype=bool)
            lead[1:] = hp[1:] != hp[:-1]
            first[hp[lead]] = hpoly[lead]
        lo, hi = hi, 2 * hi
    return first


@dataclass
class PolygonIndex:
    """Grid-bucketed polygon index (the engine's STR-pack analogue).

    Polygons' bboxes are covered EXACTLY with equirect grid cells at
    degree resolution ``res`` (floor arithmetic, lon-wrapped); a probe
    point's cell lookup yields candidate polygons, pre-filtered by bbox,
    then exact even-odd crossing-number PIP on the ring coordinates
    (planar, per the reference's planar-only kernel precedent,
    /root/reference/src/geoarrow.c:1746-1750). S2-style cells remain the
    dataset partitioning key (ops.add_cell_column); the join cover uses
    the grid because bbox→cell coverage is provably exact there.
    """

    res: float
    cell_uniq: np.ndarray
    cell_offsets: np.ndarray
    cell_polys: np.ndarray
    bbox: np.ndarray  # (n_poly, 4) xmin ymin xmax ymax
    edge_x1: np.ndarray
    edge_y1: np.ndarray
    edge_x2: np.ndarray
    edge_y2: np.ndarray
    poly_edge_offsets: np.ndarray  # (n_poly+1) into edge arrays
    id_array: pa.Array  # polygon ids, typed like the id column

    @property
    def n_polygons(self) -> int:
        return len(self.id_array)

    # -------------------------------------------------------------- build
    @staticmethod
    def build(
        polygons: pa.Table,
        geometry_col: str = "geometry",
        id_col: str = "polygon_id",
        res: float | None = None,
    ) -> "PolygonIndex":
        geo = GeoType.from_field(polygons.schema.field(geometry_col))
        if geo.geometry_type not in (GeometryType.POLYGON, GeometryType.MULTIPOLYGON):
            raise ValueError(f"pip index needs polygons, got {geo.geometry_type}")
        arr = polygons[geometry_col].combine_chunks()
        v = native.view(arr, geo)
        n = v.length

        # ring-closing edges: every consecutive vertex pair within a ring
        ring_off = v.offsets[-1]
        # per-feature ring ranges (walk outer offsets down to ring level)
        feat_ring_start = v.offsets[0][:-1]
        feat_ring_end = v.offsets[0][1:]
        for mid in v.offsets[1:-1]:
            feat_ring_start = mid[feat_ring_start]
            feat_ring_end = mid[feat_ring_end]

        x = v.coords[:, 0]
        y = v.coords[:, 1]
        # edges per ring r: vertices ring_off[r] .. ring_off[r+1]-2 paired
        # with the next vertex (rings are closed; skip the wrap edge)
        edge_counts = np.maximum(np.diff(ring_off) - 1, 0)
        ring_edge_start = np.concatenate([[0], np.cumsum(edge_counts)])
        ring, within = _ragged_ranges(edge_counts)
        src = ring_off[:-1][ring] + within
        e_x1, e_y1 = x[src], y[src]
        e_x2, e_y2 = x[src + 1], y[src + 1]

        # per-polygon edge offsets
        # rings are contiguous per feature, so feature edge ranges are
        # [ring_edge_start[first_ring], ring_edge_start[one_past_last_ring])
        poly_edge_offsets = np.zeros(n + 1, dtype=np.int64)
        poly_edge_offsets[1:] = ring_edge_start[feat_ring_end]
        poly_edge_offsets[:-1] = ring_edge_start[feat_ring_start]

        # bbox per polygon
        from georay import kernels

        b = kernels.box(arr, geo)
        mins, maxes, bvalid = native.box_view(b, GeoType.box())
        bbox = np.concatenate([mins, maxes], axis=1)

        # choose grid resolution from the median bbox extent: ~2 cells per
        # bbox side keeps (cells per polygon) × (polygons per cell) near
        # its minimum when polygons overlap heavily
        widths = np.maximum(maxes[:, 0] - mins[:, 0], maxes[:, 1] - mins[:, 1])
        finite = widths[np.isfinite(widths) & (widths > 0)]
        if res is None:
            med = float(np.median(finite)) if finite.size else 1.0
            res = float(np.clip(med / 4.0, 0.002, 30.0))

        ok = np.isfinite(bbox[:, 0]) & (bbox[:, 2] >= bbox[:, 0])
        if bvalid is not None:
            ok &= bvalid
        keys, vals = _cover_bboxes_grid(bbox, ok, res)
        uniq, offsets, vs = _csr_from_pairs(keys, vals)

        id_array = polygons[id_col].combine_chunks()
        return PolygonIndex(
            res=res,
            cell_uniq=uniq,
            cell_offsets=offsets,
            cell_polys=vs,
            bbox=bbox,
            edge_x1=e_x1,
            edge_y1=e_y1,
            edge_x2=e_x2,
            edge_y2=e_y2,
            poly_edge_offsets=poly_edge_offsets,
            id_array=id_array,
        )

    # -------------------------------------------------------------- probe
    def candidates(self, lon: np.ndarray, lat: np.ndarray):
        """(point_idx, poly_idx) bbox-filtered candidate pairs."""
        cell = cells.grid_cell(lon, lat, self.res)
        pidx, poly = csr_lookup(self.cell_uniq, self.cell_offsets, self.cell_polys, cell)
        if pidx.size == 0:
            return pidx, poly
        keep = (
            (lon[pidx] >= self.bbox[poly, 0])
            & (lat[pidx] >= self.bbox[poly, 1])
            & (lon[pidx] <= self.bbox[poly, 2])
            & (lat[pidx] <= self.bbox[poly, 3])
        )
        return pidx[keep], poly[keep]

    def _pip_pairs(self, pidx: np.ndarray, poly: np.ndarray, lon, lat) -> np.ndarray:
        """Even-odd crossing test for candidate pairs → bool per pair.

        Division-free: ``px < x_intersect`` is evaluated as a cross
        product with the strict inequality direction flipped for
        downward edges — exact for axis-aligned (box) edges, so the
        half-open [min,max) box semantics match the SQL oracle."""
        eo = self.poly_edge_offsets
        ecnt = eo[poly + 1] - eo[poly]
        inside = np.zeros(pidx.shape[0], dtype=bool)
        nz = np.nonzero(ecnt > 0)[0]
        if nz.size == 0:
            return inside
        pair, within = _ragged_ranges(ecnt[nz])
        eidx = np.repeat(eo[poly[nz]], ecnt[nz]) + within
        # repeat (sequential write) beats fancy-gather on this hardware
        px = np.repeat(lon[pidx[nz]], ecnt[nz])
        py = np.repeat(lat[pidx[nz]], ecnt[nz])
        y1 = self.edge_y1[eidx]
        y2 = self.edge_y2[eidx]
        spans = (y1 <= py) != (y2 <= py)
        x1 = self.edge_x1[eidx]
        x2 = self.edge_x2[eidx]
        lhs = (px - x1) * (y2 - y1)
        rhs = (py - y1) * (x2 - x1)
        up = y2 > y1
        cond = spans & np.where(up, lhs < rhs, lhs > rhs)
        crossings = np.bincount(pair[cond], minlength=nz.shape[0])
        inside[nz] = (crossings % 2).astype(bool)
        return inside

    def contains(self, lon: np.ndarray, lat: np.ndarray):
        """Exact PIP join: ALL (point_idx, poly_idx) matches."""
        pidx, poly = self.candidates(lon, lat)
        if pidx.size == 0:
            return pidx, poly
        inside = self._pip_pairs(pidx, poly, lon, lat)
        return pidx[inside], poly[inside]

    def intersects_rect(
        self,
        rxmin: np.ndarray,
        rymin: np.ndarray,
        rxmax: np.ndarray,
        rymax: np.ndarray,
    ):
        """(rect_idx, poly_idx) pairs whose interiors overlap.

        Test = bbox overlap filter, then: any polygon vertex inside the
        open rect, OR any rect corner inside the polygon (even-odd), OR
        any polygon edge properly crossing a rect edge. Exactly the
        standard rect–polygon intersection decomposition; boundary-only
        touches follow the half-open conventions of `_pip_pairs`.
        """
        rxmin = np.asarray(rxmin, np.float64)
        rymin = np.asarray(rymin, np.float64)
        rxmax = np.asarray(rxmax, np.float64)
        rymax = np.asarray(rymax, np.float64)
        n_rect = rxmin.shape[0]
        # candidates: grid cover of each rect (exact), then CSR lookup
        bbox = np.column_stack([rxmin, rymin, rxmax, rymax])
        keys, ridx = _cover_bboxes_grid(bbox, np.ones(n_rect, bool), self.res)
        pid, poly = csr_lookup(self.cell_uniq, self.cell_offsets, self.cell_polys, keys)
        ridx = ridx[pid]
        # dedup (rect, poly) pairs
        pairkey = ridx * np.int64(self.n_polygons) + poly
        _, ui = np.unique(pairkey, return_index=True)
        ridx, poly = ridx[ui], poly[ui]
        # bbox strict-overlap filter
        keep = (
            (self.bbox[poly, 0] < rxmax[ridx])
            & (self.bbox[poly, 2] > rxmin[ridx])
            & (self.bbox[poly, 1] < rymax[ridx])
            & (self.bbox[poly, 3] > rymin[ridx])
        )
        ridx, poly = ridx[keep], poly[keep]
        if ridx.size == 0:
            return ridx, poly
        hit = self._rect_pairs_exact(ridx, poly, rxmin, rymin, rxmax, rymax)
        return ridx[hit], poly[hit]

    def _rect_pairs_exact(
        self, ridx: np.ndarray, poly: np.ndarray,
        rxmin: np.ndarray, rymin: np.ndarray,
        rxmax: np.ndarray, rymax: np.ndarray,
    ) -> np.ndarray:
        """Exact rect–polygon overlap per candidate pair (vertex-in-rect,
        corner-in-polygon, proper edge crossing) → bool per pair. Shared
        by the grid and STR candidate generators."""
        bbox = np.column_stack([rxmin, rymin, rxmax, rymax])
        hit = np.zeros(ridx.shape[0], dtype=bool)

        # (a) any polygon vertex strictly inside the rect
        eo = self.poly_edge_offsets
        ecnt = eo[poly + 1] - eo[poly]
        pair, within = _ragged_ranges(ecnt)
        eidx = np.repeat(eo[poly], ecnt) + within
        vx = self.edge_x1[eidx]
        vy = self.edge_y1[eidx]
        inside_rect = (
            (vx > np.repeat(rxmin[ridx], ecnt))
            & (vx < np.repeat(rxmax[ridx], ecnt))
            & (vy > np.repeat(rymin[ridx], ecnt))
            & (vy < np.repeat(rymax[ridx], ecnt))
        )
        np.logical_or.at(hit, pair[inside_rect], True)

        # (b) any rect corner inside the polygon
        todo = np.nonzero(~hit)[0]
        if todo.size:
            for cx, cy in ((0, 1), (2, 1), (2, 3), (0, 3)):
                if todo.size == 0:
                    break
                px = bbox[ridx[todo], cx]
                py = bbox[ridx[todo], cy]
                # probe each pending pair's polygon with the corner
                sub = self._pip_pairs_points(poly[todo], px, py)
                hit[todo[sub]] = True
                todo = todo[~sub]

        # (c) any polygon edge properly crossing a rect edge
        if todo.size:
            sub_poly = poly[todo]
            ecnt2 = eo[sub_poly + 1] - eo[sub_poly]
            pair2, within2 = _ragged_ranges(ecnt2)
            eidx2 = np.repeat(eo[sub_poly], ecnt2) + within2
            ax = self.edge_x1[eidx2]
            ay = self.edge_y1[eidx2]
            bx = self.edge_x2[eidx2]
            by = self.edge_y2[eidx2]
            r0x = np.repeat(rxmin[ridx[todo]], ecnt2)
            r0y = np.repeat(rymin[ridx[todo]], ecnt2)
            r1x = np.repeat(rxmax[ridx[todo]], ecnt2)
            r1y = np.repeat(rymax[ridx[todo]], ecnt2)
            crossed = np.zeros(pair2.shape[0], dtype=bool)
            rect_edges = (
                (r0x, r0y, r1x, r0y),
                (r1x, r0y, r1x, r1y),
                (r1x, r1y, r0x, r1y),
                (r0x, r1y, r0x, r0y),
            )
            for cxa, cya, cxb, cyb in rect_edges:
                d1 = (cxb - cxa) * (ay - cya) - (cyb - cya) * (ax - cxa)
                d2 = (cxb - cxa) * (by - cya) - (cyb - cya) * (bx - cxa)
                d3 = (bx - ax) * (cya - ay) - (by - ay) * (cxa - ax)
                d4 = (bx - ax) * (cyb - ay) - (by - ay) * (cxb - ax)
                crossed |= (
                    ((d1 > 0) != (d2 > 0))
                    & ((d3 > 0) != (d4 > 0))
                    & (d1 != 0)
                    & (d2 != 0)
                )
            hit2 = np.zeros(todo.shape[0], dtype=bool)
            np.logical_or.at(hit2, pair2[crossed], True)
            hit[todo[hit2]] = True

        return hit

    def _pip_pairs_points(self, poly: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Even-odd test for (pair i → point (px[i], py[i]) vs poly[i])."""
        eo = self.poly_edge_offsets
        ecnt = eo[poly + 1] - eo[poly]
        inside = np.zeros(poly.shape[0], dtype=bool)
        nz = np.nonzero(ecnt > 0)[0]
        if nz.size == 0:
            return inside
        pair, within = _ragged_ranges(ecnt[nz])
        eidx = np.repeat(eo[poly[nz]], ecnt[nz]) + within
        ppx = np.repeat(px[nz], ecnt[nz])
        ppy = np.repeat(py[nz], ecnt[nz])
        y1 = self.edge_y1[eidx]
        y2 = self.edge_y2[eidx]
        spans = (y1 <= ppy) != (y2 <= ppy)
        x1 = self.edge_x1[eidx]
        x2 = self.edge_x2[eidx]
        lhs = (ppx - x1) * (y2 - y1)
        rhs = (ppy - y1) * (x2 - x1)
        up = y2 > y1
        cond = spans & np.where(up, lhs < rhs, lhs > rhs)
        crossings = np.bincount(pair[cond], minlength=nz.shape[0])
        inside[nz] = (crossings % 2).astype(bool)
        return inside

    def contains_first(self, lon: np.ndarray, lat: np.ndarray):
        """First match per point (for left/semi/anti joins): the lowest
        polygon index that contains each point, -1 when none. Candidates
        are tested in doubling rank waves (``_first_match``), so a batch
        runs at most ceil(log2 R) + 1 exact tests, R being its largest
        candidate count per point."""
        pidx, poly = self.candidates(lon, lat)
        return _first_match(pidx, poly, lon, lat, self._pip_pairs)


@dataclass
class PointIndex:
    """Grid-bucketed reference points for kNN ring expansion.

    Distance metric is planar Euclidean on (lon, lat) degrees — matching
    the DuckDB oracle expression exactly. Ring bound: a point whose grid
    cell is at Chebyshev ring > r is farther than ``r·res`` in that
    metric, so expansion can stop once the kth-best distance ≤ r·res.
    (The planar metric does NOT wrap, so the narrow antimeridian wrap
    column is harmless here: a cross-seam ref aliases into the ring but
    its planar Δlon is ~360−ε, never closer than the bound. The
    GEODESIC methods below DO need the seam-slack correction — haversine
    Δλ is circular.)
    """

    res: float
    nx: int
    cell_uniq: np.ndarray
    cell_offsets: np.ndarray
    cell_points: np.ndarray  # indices into ref arrays
    ref_lon: np.ndarray
    ref_lat: np.ndarray
    ref_ids: np.ndarray
    # lazy lat-sorted view for the geodesic polar-stall band finish
    _lat_order: np.ndarray | None = None
    _lat_sorted: np.ndarray | None = None

    @staticmethod
    def build(lon: np.ndarray, lat: np.ndarray, ids: np.ndarray, res: float) -> "PointIndex":
        ok = np.isfinite(lon) & np.isfinite(lat)
        lon = np.asarray(lon, np.float64)[ok]
        lat = np.asarray(lat, np.float64)[ok]
        ids = np.asarray(ids)[ok]
        cell = cells.grid_cell_wrapped(lon, lat, res)
        uniq, offsets, vs = _csr_from_pairs(cell, np.arange(lon.shape[0], dtype=np.int64))
        return PointIndex(
            res=res,
            nx=int(np.ceil(360.0 / res)),
            cell_uniq=uniq,
            cell_offsets=offsets,
            cell_points=vs,
            ref_lon=lon,
            ref_lat=lat,
            ref_ids=ids,
        )

    def knn(self, lon: np.ndarray, lat: np.ndarray, k: int, max_ring: int = 64):
        """For each probe → up to k nearest refs.

        Returns (probe_idx, ref_pos, dist2) flat arrays sorted by
        (probe_idx, dist2, ref_id) — deterministic under ties.
        """
        m = lon.shape[0]
        probe_cell = cells.grid_cell(lon, lat, self.res)
        # accumulated candidate set per probe (list of arrays per round)
        acc_p: list[np.ndarray] = []
        acc_r: list[np.ndarray] = []
        active = np.arange(m, dtype=np.int64)
        active = active[np.isfinite(lon[active]) & np.isfinite(lat[active])]
        kth_best = np.full(m, np.inf)
        n_found = np.zeros(m, dtype=np.int64)

        for r in range(max_ring + 1):
            if active.size == 0:
                break
            # ring r cells (border only for r>0)
            if r == 0:
                ring_cells = probe_cell[active][:, None]
            else:
                disk = cells.grid_disk(probe_cell[active], r, self.nx)
                side = 2 * r + 1
                g = disk.reshape(active.size, side, side)
                border_mask = np.zeros((side, side), bool)
                border_mask[0, :] = border_mask[-1, :] = True
                border_mask[:, 0] = border_mask[:, -1] = True
                ring_cells = g[:, border_mask]
            flat = ring_cells.reshape(-1)
            owner = np.repeat(active, ring_cells.shape[1])
            ci, refs = csr_lookup(self.cell_uniq, self.cell_offsets, self.cell_points, flat)
            if ci.size:
                acc_p.append(owner[ci])
                acc_r.append(refs)
                np.add.at(n_found, owner[ci], 1)

            # which probes can stop? need ≥k candidates AND kth dist ≤ r·res
            # (evaluate lazily: only for probes with enough candidates)
            if acc_p:
                # compute satisfaction only for active probes
                P = np.concatenate(acc_p)
                R = np.concatenate(acc_r)
                enough = n_found >= k
                check = active[enough[active]]
                if check.size:
                    sel = np.isin(P, check)
                    Ps, Rs = P[sel], R[sel]
                    d2 = (self.ref_lon[Rs] - lon[Ps]) ** 2 + (
                        self.ref_lat[Rs] - lat[Ps]
                    ) ** 2
                    order = np.lexsort((d2, Ps))
                    Ps_s, d2_s = Ps[order], d2[order]
                    # kth smallest per probe, vectorized: position within
                    # each probe's sorted run == k-1 (runs shorter than k
                    # simply have no such row)
                    uniqp, starts = np.unique(Ps_s, return_index=True)
                    run_len = np.diff(np.append(starts, Ps_s.shape[0]))
                    within = np.arange(Ps_s.shape[0]) - np.repeat(starts, run_len)
                    is_kth = within == k - 1
                    kth_best[Ps_s[is_kth]] = d2_s[is_kth]
                    bound = (r * self.res) ** 2
                    done = kth_best[active] <= bound
                    active = active[~done]
        # finalize: per probe sort candidates by (dist2, ref_id), take k
        if not acc_p:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.float64),
            )
        P = np.concatenate(acc_p)
        R = np.concatenate(acc_r)
        # dedup (ring borders may repeat cells when wrapping)
        PR = P * (self.ref_lon.shape[0] + 1) + R
        _, ui = np.unique(PR, return_index=True)
        P, R = P[ui], R[ui]
        d2 = (self.ref_lon[R] - lon[P]) ** 2 + (self.ref_lat[R] - lat[P]) ** 2
        # sort by probe, dist, ref id for deterministic ties
        order = np.lexsort((self.ref_ids[R].astype("U") if self.ref_ids.dtype == object else self.ref_ids[R], d2, P))
        P, R, d2 = P[order], R[order], d2[order]
        # keep first k rows of every probe's sorted run (vectorized)
        uniqp, starts = np.unique(P, return_index=True)
        run_len = np.diff(np.append(starts, P.shape[0]))
        within = np.arange(P.shape[0]) - np.repeat(starts, run_len)
        keep = within < k
        return P[keep], R[keep], d2[keep]

    def _disk_candidates(self, lon: np.ndarray, lat: np.ndarray, R: int):
        """Deduped (probe_idx, ref_pos) candidate pairs from one fixed
        Chebyshev cell disk of radius ``R`` around each probe. Non-finite
        probes are dropped."""
        m = lon.shape[0]
        ok = np.isfinite(lon) & np.isfinite(lat)
        probe_cell = cells.grid_cell(
            np.where(ok, lon, 0.0), np.where(ok, lat, 0.0), self.res
        )
        disk = cells.grid_disk(probe_cell, R, self.nx)  # (m, (2R+1)²)
        flat = disk.reshape(-1)
        owner = np.repeat(np.arange(m, dtype=np.int64), disk.shape[1])
        ci, refs = csr_lookup(
            self.cell_uniq, self.cell_offsets, self.cell_points, flat
        )
        if ci.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        P, Rf = owner[ci], refs
        keep_ok = ok[P]
        P, Rf = P[keep_ok], Rf[keep_ok]
        # wrap duplicates: tiny disks near the antimeridian can revisit
        PR = P * (self.ref_lon.shape[0] + 1) + Rf
        _, ui = np.unique(PR, return_index=True)
        return P[ui], Rf[ui]

    def _order_pairs(self, P: np.ndarray, Rf: np.ndarray, d: np.ndarray):
        """Deterministic (probe, distance, ref_id) ordering."""
        order = np.lexsort(
            (
                self.ref_ids[Rf].astype("U")
                if self.ref_ids.dtype == object
                else self.ref_ids[Rf],
                d,
                P,
            )
        )
        return P[order], Rf[order], d[order]

    def within(self, lon: np.ndarray, lat: np.ndarray, radius: float,
               radius2: float | None = None):
        """All (probe, ref) pairs with planar distance ≤ ``radius``.

        One fixed disk of Chebyshev radius ``ceil(radius/res)``
        guarantees coverage (a ref in ring > R is farther than
        R·res ≥ radius in the non-wrapping planar metric), so no
        expansion loop — one vectorized CSR gather + exact filter.
        ``radius2`` — optional PRE-SQUARED threshold: the exact filter
        compares ``d2 <= radius2`` instead of ``radius*radius``, so a
        caller whose contract is expressed on squared distance (e.g. a
        SQL twin with an exactly-representable eps²) avoids the
        sqrt→square round-trip ulp; ``radius`` then only sizes the
        candidate disk and must satisfy radius² ≥ radius2.
        Returns (probe_idx, ref_pos, dist2) sorted by
        (probe_idx, dist2, ref_id)."""
        P, Rf = self._disk_candidates(lon, lat, int(np.ceil(radius / self.res)))
        if P.size == 0:
            return P, Rf, np.empty(0, np.float64)
        d2 = (self.ref_lon[Rf] - lon[P]) ** 2 + (self.ref_lat[Rf] - lat[P]) ** 2
        hit = d2 <= (radius * radius if radius2 is None else radius2)
        return self._order_pairs(P[hit], Rf[hit], d2[hit])

    def within_geodesic(self, lon: np.ndarray, lat: np.ndarray, radius_km: float):
        """All (probe, ref) pairs with great-circle (haversine) distance
        ≤ ``radius_km`` km.

        The degree grid still bounds the candidate set: ``radius_km``
        spans at most ``radius_km / KM_PER_DEG`` degrees of latitude, and
        at most ``radius_km / (KM_PER_DEG · cos φ)`` degrees of longitude
        where φ is the poleward-most latitude reachable from any probe in
        the batch. One conservative Chebyshev disk of that (batch-max)
        degree radius covers all true matches; the exact haversine filter
        runs per candidate. Near-polar probes (|φ| → 90°) degrade to a
        wide disk — the planar metric has no such blow-up, which is why
        planar stays the default. Returns (probe_idx, ref_pos, dist_km)
        sorted by (probe_idx, dist_km, ref_id)."""
        from georay.kernels import KM_PER_DEG, haversine_km

        m = lon.shape[0]
        ok = np.isfinite(lon) & np.isfinite(lat)
        deg_lat = radius_km / KM_PER_DEG
        # Per-probe longitude span, evaluated at the poleward-most
        # latitude the probe's circle reaches. A probe whose circle
        # crosses the pole needs every longitude column; the cos floor
        # makes its R cover the full row (disk dedup absorbs the wrap).
        phi = np.minimum(np.abs(np.where(ok, lat, 0.0)) + deg_lat, 89.999)
        deg_lon = radius_km / (
            KM_PER_DEG * np.maximum(np.cos(np.radians(phi)), 1e-6)
        )
        slack = self.nx * self.res - 360.0
        r_probe = np.ceil(
            (np.maximum(deg_lat, deg_lon) + slack) / self.res
        ).astype(np.int64)
        r_probe = np.maximum(r_probe, 1)
        half_row = int(np.ceil(self.nx / 2)) + 1
        r_probe = np.minimum(r_probe, half_row)
        # Quantize to powers of two so one batch gathers O(log) disk
        # sizes instead of one per distinct latitude cell.
        r_q = np.int64(1) << np.int64(
            np.ceil(np.log2(r_probe.astype(np.float64)))
        )
        r_q = np.minimum(np.maximum(r_q, r_probe), half_row)
        P_all, Rf_all = [], []
        for R in np.unique(r_q):
            sel = np.nonzero(r_q == R)[0]
            Pb, Rfb = self._disk_candidates(lon[sel], lat[sel], int(R))
            P_all.append(sel[Pb])
            Rf_all.append(Rfb)
        P = np.concatenate(P_all) if P_all else np.empty(0, np.int64)
        Rf = np.concatenate(Rf_all) if Rf_all else np.empty(0, np.int64)
        if P.size == 0:
            return P, Rf, np.empty(0, np.float64)
        d = haversine_km(lon[P], lat[P], self.ref_lon[Rf], self.ref_lat[Rf])
        hit = d <= radius_km
        return self._order_pairs(P[hit], Rf[hit], d[hit])

    def knn_geodesic(
        self, lon: np.ndarray, lat: np.ndarray, k: int,
        max_ring: int | None = None,
    ):
        """For each probe → up to k nearest refs by GREAT-CIRCLE
        distance, ring expansion with a pole-safe stopping bound.

        A ref outside Chebyshev ring ``r`` differs by > r·res° in
        latitude OR by > r·res − seam_slack° in longitude (the wrap
        column is narrower than res when res ∤ 360). The latitude case
        lower-bounds distance by ``r·res·KM_PER_DEG`` (meridian arc ≤
        haversine). The longitude case is NOT pole-safe alone
        (meridians converge), but such a ref sits inside the probe's
        latitude band ``|Δφ| < (r+1)·res``, so ``cos φ_ref ≥ cos φ_max``
        with ``φ_max = |φ_probe| + (r+1)·res`` and haversine ≥
        2R·asin(√(cos φ_probe·cos φ_max)·sin(Δλ/2)). Once the ring
        covers every longitude column the lon case is empty and the
        latitude bound alone applies; at ``full_cover`` the disk spans
        the globe and whatever a probe holds is exact.

        The stop test compares QUANTIZED milli-km (kth_mkm <
        bound_mkm, strictly): quantization is monotone, so an outside
        ref can neither displace the kth candidate nor steal its
        ref-id tie-break — bit-identical to the brute scan.

        POLAR STALL (r4): a probe whose ``φ_max`` pins at 90° has a
        dead longitude bound (cos 90° = 0) and would otherwise ring-
        expand to ``half_row`` rounds with O(r²) disk cells each — the
        measured failure mode was 1% polar probes costing 100+ GB-scale
        rounds. Once such a probe holds ≥k candidates it is finished
        EXACTLY by brute-scanning the latitude band
        ``|Δφ| ≤ (kth_mkm+1)/1000/KM_PER_DEG`` (meridian arc lower-
        bounds haversine, and the +1 mkm slack keeps quantized ties
        from being excluded), lat-sorted refs + two searchsorted calls,
        chunked to bound memory.

        Returns (probe_idx, ref_pos, d_mkm int64) sorted by
        (probe_idx, d_mkm, ref_id)."""
        from georay.kernels import EARTH_RADIUS_KM, KM_PER_DEG, haversine_km

        m = lon.shape[0]
        ok0 = np.isfinite(lon) & np.isfinite(lat)
        probe_cell = cells.grid_cell(
            np.where(ok0, lon, 0.0), np.where(ok0, lat, 0.0), self.res
        )
        ny = int(np.ceil(180.0 / self.res))
        half_row = int(np.ceil(self.nx / 2)) + 1
        full_cover = max(half_row, ny) + 1
        if max_ring is None:
            max_ring = full_cover
        acc_p: list[np.ndarray] = []
        acc_r: list[np.ndarray] = []
        active = np.arange(m, dtype=np.int64)[ok0]
        n_found = np.zeros(m, dtype=np.int64)

        for r in range(max_ring + 1):
            if active.size == 0:
                break
            if r == 0:
                ring_cells = probe_cell[active][:, None]
            else:
                disk = cells.grid_disk(probe_cell[active], r, self.nx)
                side = 2 * r + 1
                g = disk.reshape(active.size, side, side)
                border_mask = np.zeros((side, side), bool)
                border_mask[0, :] = border_mask[-1, :] = True
                border_mask[:, 0] = border_mask[:, -1] = True
                ring_cells = g[:, border_mask]
            flat = ring_cells.reshape(-1)
            owner = np.repeat(active, ring_cells.shape[1])
            ci, refs = csr_lookup(
                self.cell_uniq, self.cell_offsets, self.cell_points, flat
            )
            if ci.size:
                acc_p.append(owner[ci])
                acc_r.append(refs)
                np.add.at(n_found, owner[ci], 1)

            if r >= full_cover:
                break  # globe covered — every surviving probe is exact
            if not acc_p:
                continue
            enough = n_found >= k
            check = active[enough[active]]
            if check.size == 0:
                continue
            P = np.concatenate(acc_p)
            R = np.concatenate(acc_r)
            sel = np.isin(P, check)
            Ps, Rs = P[sel], R[sel]
            # dedup wrap revisits so duplicate candidates can't shrink
            # the apparent kth distance below the true distinct kth
            PR = Ps * (self.ref_lon.shape[0] + 1) + Rs
            _, ui = np.unique(PR, return_index=True)
            Ps, Rs = Ps[ui], Rs[ui]
            km = haversine_km(lon[Ps], lat[Ps], self.ref_lon[Rs], self.ref_lat[Rs])
            mkm = np.floor(km * 1000.0 + 0.5).astype(np.int64)
            order = np.lexsort((mkm, Ps))
            Ps_s, mkm_s = Ps[order], mkm[order]
            uniqp, starts = np.unique(Ps_s, return_index=True)
            run_len = np.diff(np.append(starts, Ps_s.shape[0]))
            within = np.arange(Ps_s.shape[0]) - np.repeat(starts, run_len)
            is_kth = within == k - 1
            kth_mkm = np.full(m, np.iinfo(np.int64).max)
            kth_mkm[Ps_s[is_kth]] = mkm_s[is_kth]
            r_res = r * self.res
            slack = self.nx * self.res - 360.0
            lat_bound = r_res * KM_PER_DEG
            polar = np.zeros(active.size, dtype=bool)
            if r < half_row:
                phi1 = np.abs(lat[active])
                phi_max = np.minimum(phi1 + (r + 1) * self.res, 90.0)
                lon_sep = max(r_res - slack, 0.0)
                arg = np.sqrt(
                    np.maximum(
                        np.cos(np.radians(phi1)) * np.cos(np.radians(phi_max)),
                        0.0,
                    )
                ) * np.sin(np.radians(min(lon_sep, 180.0)) / 2.0)
                lon_bound = (
                    2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(arg, 1.0))
                )
                d_min = np.minimum(lat_bound, lon_bound)
                if r >= 1:
                    polar = phi_max >= 90.0
            else:
                d_min = np.full(active.size, lat_bound)
            bound_mkm = np.floor(d_min * 1000.0 + 0.5).astype(np.int64)
            done = kth_mkm[active] < bound_mkm
            # polar stall: dead lon bound + kth known → exact lat-band
            # brute finish (see docstring)
            stalled = polar & ~done & (
                kth_mkm[active] < np.iinfo(np.int64).max
            )
            if np.any(stalled):
                if self._lat_order is None:
                    self._lat_order = np.argsort(self.ref_lat, kind="stable")
                    self._lat_sorted = self.ref_lat[self._lat_order]
                sp = active[stalled]
                dlat = ((kth_mkm[sp] + 1) / 1000.0) / KM_PER_DEG + 1e-12
                lo_b = np.searchsorted(self._lat_sorted, lat[sp] - dlat, "left")
                hi_b = np.searchsorted(self._lat_sorted, lat[sp] + dlat, "right")
                cnt = hi_b - lo_b
                # chunk the ragged band materialization to bound memory
                CH = 1 << 25
                pos0 = 0
                while pos0 < sp.shape[0]:
                    csum = np.cumsum(cnt[pos0:])
                    take = int(np.searchsorted(csum, CH, "left")) + 1
                    pos1 = min(pos0 + take, sp.shape[0])
                    c = cnt[pos0:pos1]
                    tot = int(c.sum())
                    if tot:
                        off = np.concatenate(([0], np.cumsum(c)[:-1]))
                        idx = (
                            np.repeat(lo_b[pos0:pos1], c)
                            + np.arange(tot)
                            - np.repeat(off, c)
                        )
                        acc_p.append(np.repeat(sp[pos0:pos1], c))
                        acc_r.append(self._lat_order[idx])
                    pos0 = pos1
                done = done | stalled
            active = active[~done]

        # finalize: per probe sort candidates by (mkm, ref_id), take k
        if not acc_p:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.int64),
            )
        P = np.concatenate(acc_p)
        R = np.concatenate(acc_r)
        PR = P * (self.ref_lon.shape[0] + 1) + R
        _, ui = np.unique(PR, return_index=True)
        P, R = P[ui], R[ui]
        km = haversine_km(lon[P], lat[P], self.ref_lon[R], self.ref_lat[R])
        mkm = np.floor(km * 1000.0 + 0.5).astype(np.int64)
        order = np.lexsort((self.ref_ids[R], mkm, P))
        P, R, mkm = P[order], R[order], mkm[order]
        uniqp, starts = np.unique(P, return_index=True)
        run_len = np.diff(np.append(starts, P.shape[0]))
        within = np.arange(P.shape[0]) - np.repeat(starts, run_len)
        keep = within < k
        return P[keep], R[keep], mkm[keep]


@dataclass
class STRPointIndex:
    """STR-packed R-tree over reference POINTS — the mixed-extent
    alternative to ``PointIndex``'s uniform grid for kNN and box
    probes (the r3 verdict's remaining STR gap). Same flat
    implicit-fanout layout as ``STRPolygonIndex`` (four numpy arrays
    per level, zero pointers, broadcastable via ``exchange.broadcast``).

    kNN runs as per-probe RADIUS DOUBLING over the tree: each round
    descends the levels once for all active probes with their current
    box ±ρ (vectorized ragged expansion + bbox prune), then resolves a
    probe when it holds ≥k candidates with kth distance ≤ ρ — every
    ref outside the box has max(|dx|,|dy|) > ρ ≥ kth, so the candidate
    set provably contains the true top-k. Once a probe's kth is known
    the radius jumps straight to √kth (one more round). Returns the
    identical (probe_idx, ref_pos, dist2) contract and (d2, ref_id)
    tie order as ``PointIndex.knn`` — parity-pinned."""

    levels: list
    slot_to_ref: np.ndarray
    ref_lon: np.ndarray
    ref_lat: np.ndarray
    ref_ids: np.ndarray
    fanout: int
    r0: float

    @staticmethod
    def build(
        lon: np.ndarray,
        lat: np.ndarray,
        ids: np.ndarray,
        leaf_size: int = 16,
        fanout: int = 8,
        r0: float | None = None,
    ) -> "STRPointIndex":
        lon = np.asarray(lon, np.float64)
        lat = np.asarray(lat, np.float64)
        ids = np.asarray(ids)
        ok = np.isfinite(lon) & np.isfinite(lat)
        lon, lat, ids = lon[ok], lat[ok], ids[ok]
        n = lon.shape[0]
        if r0 is None:
            r0 = float(
                np.clip(np.sqrt(360.0 * 180.0 / max(n, 1)) * 2.0, 0.25, 30.0)
            )
        if n == 0:
            return STRPointIndex(
                levels=[np.empty((0, 4))],
                slot_to_ref=np.empty(0, np.int64),
                ref_lon=lon, ref_lat=lat, ref_ids=ids,
                fanout=fanout, r0=r0,
            )
        n_slices = max(int(np.ceil(np.sqrt(n / leaf_size))), 1)
        slice_rows = int(np.ceil(n / n_slices))
        by_x = np.argsort(lon, kind="stable")
        order = np.empty(n, np.int64)
        for s in range(n_slices):
            seg = by_x[s * slice_rows:(s + 1) * slice_rows]
            seg = seg[np.argsort(lat[seg], kind="stable")]
            order[s * slice_rows:s * slice_rows + seg.shape[0]] = seg
        leaves = np.column_stack(
            [lon[order], lat[order], lon[order], lat[order]]
        )
        levels = [leaves]
        while levels[0].shape[0] > fanout:
            child = levels[0]
            m = child.shape[0]
            n_up = int(np.ceil(m / fanout))
            up = np.empty((n_up, 4))
            pad = n_up * fanout - m
            lo = np.vstack([child[:, :2], np.full((pad, 2), np.inf)])
            hi = np.vstack([child[:, 2:], np.full((pad, 2), -np.inf)])
            up[:, :2] = lo.reshape(n_up, fanout, 2).min(axis=1)
            up[:, 2:] = hi.reshape(n_up, fanout, 2).max(axis=1)
            levels.insert(0, up)
        return STRPointIndex(
            levels=levels, slot_to_ref=order,
            ref_lon=lon, ref_lat=lat, ref_ids=ids,
            fanout=fanout, r0=r0,
        )

    def _box_candidates(
        self, rxmin: np.ndarray, rymin: np.ndarray,
        rxmax: np.ndarray, rymax: np.ndarray,
    ):
        """(probe_idx, ref_pos) pairs whose point lies in [rmin, rmax]
        (inclusive), via one all-probes tree descent."""
        n_rect = rxmin.shape[0]
        top = self.levels[0]
        if top.shape[0] == 0 or n_rect == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        ridx = np.repeat(np.arange(n_rect, dtype=np.int64), top.shape[0])
        node = np.tile(np.arange(top.shape[0], dtype=np.int64), n_rect)

        def prune(level_bbox, ridx, node):
            keep = (
                (level_bbox[node, 0] <= rxmax[ridx])
                & (level_bbox[node, 2] >= rxmin[ridx])
                & (level_bbox[node, 1] <= rymax[ridx])
                & (level_bbox[node, 3] >= rymin[ridx])
            )
            return ridx[keep], node[keep]

        ridx, node = prune(top, ridx, node)
        for lvl in self.levels[1:]:
            m = lvl.shape[0]
            first = node * self.fanout
            cnt = np.minimum(first + self.fanout, m) - first
            owner, within = _ragged_ranges(cnt)
            ridx = ridx[owner]
            node = first[owner] + within
            ridx, node = prune(lvl, ridx, node)
        return ridx, self.slot_to_ref[node]

    def knn(self, lon: np.ndarray, lat: np.ndarray, k: int):
        """Identical contract to ``PointIndex.knn``: (probe_idx,
        ref_pos, dist2) sorted by (probe_idx, dist2, ref_id)."""
        m = lon.shape[0]
        active = np.arange(m, dtype=np.int64)
        active = active[np.isfinite(lon[active]) & np.isfinite(lat[active])]
        if self.ref_lon.shape[0] == 0 or active.size == 0:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.float64),
            )
        root = self.levels[0]
        rxmin, rymin = root[:, 0].min(), root[:, 1].min()
        rxmax, rymax = root[:, 2].max(), root[:, 3].max()
        ids_key = (
            self.ref_ids.astype("U")
            if self.ref_ids.dtype == object
            else self.ref_ids
        )
        rho = np.full(m, self.r0)
        out_p: list[np.ndarray] = []
        out_r: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        while active.size:
            al, aa = lon[active], lat[active]
            covers_all = (
                (al - rho[active] <= rxmin) & (al + rho[active] >= rxmax)
                & (aa - rho[active] <= rymin) & (aa + rho[active] >= rymax)
            )
            Pi, Rf = self._box_candidates(
                al - rho[active], aa - rho[active],
                al + rho[active], aa + rho[active],
            )
            if Pi.size:
                d2 = (self.ref_lon[Rf] - al[Pi]) ** 2 + (
                    self.ref_lat[Rf] - aa[Pi]
                ) ** 2
                order = np.lexsort((ids_key[Rf], d2, Pi))
                Pi, Rf, d2 = Pi[order], Rf[order], d2[order]
                uniqp, starts = np.unique(Pi, return_index=True)
                run_len = np.diff(np.append(starts, Pi.shape[0]))
                within = np.arange(Pi.shape[0]) - np.repeat(starts, run_len)
                kth_d2 = np.full(active.size, np.inf)
                is_kth = within == k - 1
                kth_d2[Pi[is_kth]] = d2[is_kth]
                resolved = (kth_d2 <= rho[active] ** 2) | covers_all
                if np.any(resolved):
                    emit = resolved[Pi] & (within < k)
                    out_p.append(active[Pi[emit]])
                    out_r.append(Rf[emit])
                    out_d.append(d2[emit])
                # unresolved with known kth jump straight to √kth — with
                # a relative bump so (ρ')² ≥ kth survives float rounding
                # ((√kth)² can round below kth, which would freeze ρ and
                # loop forever; a larger ρ is never wrong, only wider)
                grow = ~resolved
                jump = grow & np.isfinite(kth_d2)
                gidx = active[jump]
                rho[gidx] = np.maximum(
                    np.sqrt(kth_d2[jump]) * (1.0 + 1e-9),
                    np.nextafter(rho[gidx], np.inf),
                )
                dbl = grow & ~np.isfinite(kth_d2)
                rho[active[dbl]] *= 2.0
                active = active[grow]
            else:
                resolved = covers_all  # box spans all refs yet none exist
                if np.any(resolved):
                    pass  # nothing to emit for these probes
                rho[active[~resolved]] *= 2.0
                active = active[~resolved]
        if not out_p:
            return (
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.float64),
            )
        P = np.concatenate(out_p)
        R = np.concatenate(out_r)
        D = np.concatenate(out_d)
        order = np.lexsort((ids_key[R], D, P))
        return P[order], R[order], D[order]


@dataclass
class STRPolygonIndex:
    """STR-packed polygon R-tree (Sort-Tile-Recursive bulk load) — the
    north star's literal index shape, as an alternative broadcast
    candidate generator to ``PolygonIndex``'s grid buckets. Leaf order
    comes from the classic STR pack: sort by bbox center x, cut into
    ⌈√(n/leaf)⌉ vertical slices, sort each slice by center y; levels
    above pack every ``fanout`` consecutive nodes, so child ranges are
    IMPLICIT (node i covers children [i·f, (i+1)·f)) and the whole
    tree is four flat numpy arrays per level — zero pointers, zero
    Python objects, broadcastable via ``exchange.broadcast`` like the grid index.

    Probing descends all levels at once per batch: (point, node)
    candidate pairs expand by fanout and filter by bbox containment at
    each level (vectorized ``_ragged_ranges`` + compares). The EXACT
    even-odd test and the geometry storage are shared with
    ``PolygonIndex`` (``_pip_pairs``), so both indexes return identical
    match sets — pinned by a parity test."""

    base: PolygonIndex
    levels: list  # top-down list of (n_nodes, 4) bbox arrays; [-1] = leaves
    slot_to_poly: np.ndarray  # leaf slot -> polygon index
    fanout: int

    @property
    def id_array(self) -> pa.Array:
        return self.base.id_array

    @property
    def n_polygons(self) -> int:
        return self.base.n_polygons

    @staticmethod
    def build(
        polygons: pa.Table,
        geometry_col: str = "geometry",
        id_col: str = "polygon_id",
        leaf_size: int = 16,
        fanout: int = 8,
    ) -> "STRPolygonIndex":
        from dataclasses import replace

        base = PolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=id_col
        )
        # the STR tree replaces the grid candidate generator entirely —
        # drop the CSR cell cover so the broadcast payload ships only
        # geometry + bboxes
        base = replace(
            base,
            cell_uniq=np.empty(0, np.int64),
            cell_offsets=np.zeros(1, np.int64),
            cell_polys=np.empty(0, np.int64),
        )
        bbox = base.bbox
        ok = np.isfinite(bbox[:, 0]) & (bbox[:, 2] >= bbox[:, 0])
        valid = np.nonzero(ok)[0]
        n = valid.shape[0]
        if n == 0:
            return STRPolygonIndex(
                base=base, levels=[np.empty((0, 4))],
                slot_to_poly=np.empty(0, np.int64), fanout=fanout,
            )
        cx = (bbox[valid, 0] + bbox[valid, 2]) * 0.5
        cy = (bbox[valid, 1] + bbox[valid, 3]) * 0.5
        n_slices = max(int(np.ceil(np.sqrt(n / leaf_size))), 1)
        slice_rows = int(np.ceil(n / n_slices))
        by_x = np.argsort(cx, kind="stable")
        order = np.empty(n, np.int64)
        for s in range(n_slices):
            seg = by_x[s * slice_rows:(s + 1) * slice_rows]
            seg = seg[np.argsort(cy[seg], kind="stable")]
            order[s * slice_rows:s * slice_rows + seg.shape[0]] = seg
        slot_to_poly = valid[order]
        leaves = bbox[slot_to_poly]
        levels = [leaves]
        while levels[0].shape[0] > fanout:
            child = levels[0]
            m = child.shape[0]
            n_up = int(np.ceil(m / fanout))
            up = np.empty((n_up, 4))
            pad = n_up * fanout - m
            lo = np.vstack([child[:, :2], np.full((pad, 2), np.inf)])
            hi = np.vstack([child[:, 2:], np.full((pad, 2), -np.inf)])
            up[:, :2] = lo.reshape(n_up, fanout, 2).min(axis=1)
            up[:, 2:] = hi.reshape(n_up, fanout, 2).max(axis=1)
            levels.insert(0, up)
        return STRPolygonIndex(
            base=base, levels=levels, slot_to_poly=slot_to_poly, fanout=fanout
        )

    def candidates(self, lon: np.ndarray, lat: np.ndarray):
        """(point_idx, poly_idx) bbox-filtered pairs via tree descent."""
        npts = lon.shape[0]
        top = self.levels[0]
        if top.shape[0] == 0 or npts == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # seed: every point against every top node (≤ fanout of them)
        pidx = np.repeat(np.arange(npts, dtype=np.int64), top.shape[0])
        node = np.tile(np.arange(top.shape[0], dtype=np.int64), npts)

        def prune(level_bbox, pidx, node):
            keep = (
                (lon[pidx] >= level_bbox[node, 0])
                & (lat[pidx] >= level_bbox[node, 1])
                & (lon[pidx] <= level_bbox[node, 2])
                & (lat[pidx] <= level_bbox[node, 3])
            )
            return pidx[keep], node[keep]

        pidx, node = prune(top, pidx, node)
        for lvl in self.levels[1:]:
            m = lvl.shape[0]
            first = node * self.fanout
            cnt = np.minimum(first + self.fanout, m) - first
            owner, within = _ragged_ranges(cnt)
            pidx = pidx[owner]
            node = first[owner] + within
            pidx, node = prune(lvl, pidx, node)
        # leaf slots -> polygon indices, probe-major order for _pip_pairs
        poly = self.slot_to_poly[node]
        order = np.lexsort((poly, pidx))
        return pidx[order], poly[order]

    def contains(self, lon: np.ndarray, lat: np.ndarray):
        pidx, poly = self.candidates(lon, lat)
        if pidx.size == 0:
            return pidx, poly
        inside = self.base._pip_pairs(pidx, poly, lon, lat)
        return pidx[inside], poly[inside]

    def contains_first(self, lon: np.ndarray, lat: np.ndarray):
        """First (lowest-index) matching polygon per point, -1 if none:
        the grid index's doubling rank waves (``_first_match``) over the
        tree's probe-major, poly-ascending candidates."""
        pidx, poly = self.candidates(lon, lat)
        return _first_match(pidx, poly, lon, lat, self.base._pip_pairs)

    def intersects_rect(
        self,
        rxmin: np.ndarray,
        rymin: np.ndarray,
        rxmax: np.ndarray,
        rymax: np.ndarray,
    ):
        """(rect_idx, poly_idx) interior-overlap pairs via R-tree
        descent (strict bbox-overlap pruning — the same filter the grid
        path applies) + the shared exact decomposition."""
        rxmin = np.asarray(rxmin, np.float64)
        rymin = np.asarray(rymin, np.float64)
        rxmax = np.asarray(rxmax, np.float64)
        rymax = np.asarray(rymax, np.float64)
        n_rect = rxmin.shape[0]
        top = self.levels[0]
        if top.shape[0] == 0 or n_rect == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        ridx = np.repeat(np.arange(n_rect, dtype=np.int64), top.shape[0])
        node = np.tile(np.arange(top.shape[0], dtype=np.int64), n_rect)

        def prune(level_bbox, ridx, node):
            keep = (
                (level_bbox[node, 0] < rxmax[ridx])
                & (level_bbox[node, 2] > rxmin[ridx])
                & (level_bbox[node, 1] < rymax[ridx])
                & (level_bbox[node, 3] > rymin[ridx])
            )
            return ridx[keep], node[keep]

        ridx, node = prune(top, ridx, node)
        for lvl in self.levels[1:]:
            m = lvl.shape[0]
            first = node * self.fanout
            cnt = np.minimum(first + self.fanout, m) - first
            owner, within = _ragged_ranges(cnt)
            ridx = ridx[owner]
            node = first[owner] + within
            ridx, node = prune(lvl, ridx, node)
        poly = self.slot_to_poly[node]
        order = np.lexsort((poly, ridx))
        ridx, poly = ridx[order], poly[order]
        if ridx.size == 0:
            return ridx, poly
        hit = self.base._rect_pairs_exact(ridx, poly, rxmin, rymin, rxmax, rymax)
        return ridx[hit], poly[hit]
