"""The four workloads: how each builds its Ray Data job from the seeded
inputs, runs it, and checks the result against the oracle.

Each workload is a ``Workload`` whose ``job()`` runs one complete job
(input Dataset to result on the driver or on disk) and returns what
``check()`` and ``output_bytes()`` need.  ``georay`` is imported only
inside these methods, after the benchmark has timed its import.
"""

from __future__ import annotations

import glob
import math
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import gen, oracle

N_BLOCKS = 4


def _blocks(table: pa.Table, n: int = N_BLOCKS) -> list[pa.Table]:
    step = math.ceil(len(table) / n)
    return [table.slice(i, step) for i in range(0, len(table), step)]


def _collect(ds) -> pa.Table:
    import ray

    tables = ray.get(ds.to_arrow_refs())
    # empty blocks may carry no schema at all
    return pa.concat_tables([t for t in tables if t.num_rows] or tables[:1])


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in glob.glob(os.path.join(path, "**"), recursive=True) if os.path.isfile(f))


class Workload:
    name = ""

    def __init__(self, inputs: str, work: str, expect: dict):
        self.inputs, self.work, self.expect = inputs, work, expect
        self.rows = expect["rows"]

    def job(self):
        raise NotImplementedError

    def check(self, result) -> bool:
        raise NotImplementedError

    def output_bytes(self, result) -> int:
        return result.nbytes

    def cleanup(self, result) -> None:
        """Drop the job's output before the next job runs."""


class EnrichImages(Workload):
    """``pipeline.run_flagship`` into a fresh output directory."""

    name = "enrich_images"

    def __init__(self, inputs, work, expect):
        super().__init__(inputs, work, expect)
        self.polygons = pq.read_table(os.path.join(inputs, "polygons.parquet"))
        self.out = os.path.join(work, "enrich-out")

    def job(self):
        from georay import pipeline

        shutil.rmtree(self.out, ignore_errors=True)
        return pipeline.run_flagship(os.path.join(self.inputs, "images"), self.out, self.polygons)

    def check(self, summary) -> bool:
        if summary["rows"] != self.rows:
            return False
        tiles = pq.read_table(os.path.join(self.out, "tile_histogram.parquet"))
        if pc.sum(tiles["count"]).as_py() != self.rows:
            return False
        assign = pq.read_table(os.path.join(self.out, "assign"), columns=["image_id", "polygon_id"])
        want = self.expect["enrich"]
        got = oracle.polygon_of(assign, want["image_id"])
        return all((g in w) if w else g is None for g, w in zip(got, want["polygons"]))

    def output_bytes(self, summary) -> int:
        return _dir_bytes(os.path.join(self.out, "assign"))

    def cleanup(self, summary) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class KnnGeodesic(Workload):
    """``joins.knn_geodesic_partitioned`` with k=5: image geotags against
    the second point set."""

    name = "knn_geodesic"

    def __init__(self, inputs, work, expect):
        super().__init__(inputs, work, expect)
        self.probes = _blocks(oracle.probe_table(inputs))
        self.refs = _blocks(pq.read_table(os.path.join(inputs, "refs.parquet")))
        self.rows = expect["knn"]["n_probes"]

    def job(self):
        import ray.data as rd

        from georay import joins

        out = joins.knn_geodesic_partitioned(
            rd.from_arrow(self.probes), rd.from_arrow(self.refs), k=oracle.K, probe_id_col="pid", ref_id_col="rid"
        )
        return _collect(out)

    def check(self, result) -> bool:
        want = self.expect["knn"]
        if len(result) != self.rows * oracle.K:
            return False
        sub = result.filter(pc.is_in(result["pid"], pa.array(want["pid"], pa.int64())))
        sub = sub.sort_by([("pid", "ascending"), ("rank", "ascending")])
        rid = sub["rid"].to_numpy().reshape(-1, oracle.K)
        d = sub["d_mkm"].to_numpy().reshape(-1, oracle.K)
        return rid.tolist() == want["rid"] and d.tolist() == want["d_mkm"]


def codec_block(batch: pa.Table) -> pa.Table:
    """One block of one geometry kind: WKT -> native -> WKB -> native ->
    WKT, plus box and centroid of the first native array."""
    from georay import kernels
    from georay.codecs import wkb, wkt
    from georay.types import Dimensions, GeoType

    kind = batch["kind"][0].as_py()
    geo = {
        "polygon_xy": GeoType.polygon(),
        "polygon_holes": GeoType.polygon(),
        "polygon_xyz": GeoType.polygon().with_dimensions(Dimensions.XYZ),
        "linestring": GeoType.linestring(),
    }[kind]
    native, _ = wkt.decode(batch["wkt"], geo)
    back, _ = wkb.decode(wkb.encode(native, geo), geo)
    box = kernels.box(native, geo)
    cen = kernels.centroid(native, geo)
    cols = {"row": batch["row"], "wkt": wkt.encode(back, geo)}
    for f in ("xmin", "ymin", "xmax", "ymax"):
        cols[f] = box.field(f)
    cols["cx"], cols["cy"] = cen.field("x"), cen.field("y")
    return pa.table(cols)


class CodecRoundtrip(Workload):
    """A ``map_batches`` job over one block per geometry kind."""

    name = "codec_roundtrip"

    def __init__(self, inputs, work, expect):
        super().__init__(inputs, work, expect)
        t = pq.read_table(os.path.join(inputs, "wkt_blocks.parquet"), columns=["kind", "wkt"])
        t = t.append_column("row", pa.array(np.arange(len(t), dtype=np.int64)))
        self.wkt = t["wkt"]
        self.blocks = [t.filter(pc.equal(t["kind"], k)) for k, _n in gen.WKT_KINDS]
        self.rows = len(t)

    def job(self):
        import ray.data as rd

        ds = rd.from_arrow(self.blocks).map_batches(
            codec_block, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
        return _collect(ds).sort_by("row")

    def check(self, result) -> bool:
        if len(result) != self.rows or not result["wkt"].equals(self.wkt):
            return False
        want = self.expect["codec"]
        for col, ref in want.items():
            ok = np.array([r is not None for r in ref])
            got = result[col].to_numpy(zero_copy_only=False)[ok].astype(np.float64)
            if not np.allclose(got, np.array([r for r in ref if r is not None]), rtol=1e-12, atol=1e-9):
                return False
        return True


class CaptionDedup(Workload):
    """``stages.dedup.minhash_dedup(threshold=0.8)`` over the captions."""

    name = "caption_dedup"

    def __init__(self, inputs, work, expect):
        super().__init__(inputs, work, expect)
        caps = oracle.images_table(inputs, ["caption"])["caption"]
        docs = pa.table({"doc_id": pa.array(np.arange(len(caps), dtype=np.int64)), "text": caps})
        self.docs = _blocks(docs)

    def job(self):
        import ray.data as rd

        from georay.stages import dedup

        return _collect(dedup.minhash_dedup(rd.from_arrow(self.docs), text_col="text", id_col="doc_id", threshold=0.8))

    def check(self, result) -> bool:
        if len(result) != self.rows:
            return False
        dup = result.filter(result["is_dup"])["doc_id"].to_numpy()
        return bool(np.isin(self.expect["dedup"]["copies"], dup).all())


WORKLOADS = {w.name: w for w in (EnrichImages, KnnGeodesic, CodecRoundtrip, CaptionDedup)}
