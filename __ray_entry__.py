"""Driver contract for the georay engine (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (nor in the georay library) calls ``ray.init`` / ``ray.shutdown``.

- ``entry()``: flagship spatial pipeline over /root/testdata/sf0.001 —
  cell encode → broadcast PIP join → mercator tiling → skew-safe
  per-cell aggregate; returns the enriched aggregate as a pyarrow Table.
- ``queries()``: one callable per implemented operator/pipeline from
  SURVEY.md §2 (geometry kernels, cell index, joins, tiling, dedup,
  windows, codec round-trips).
- ``oracle_sql()``: DuckDB-equivalent SQL for every SQL-expressible
  query; geometry is synthesized deterministically from integer columns
  (FIXTURES.md F6) so doubles match bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from georay import tpch

    sf_dir = "/root/testdata/sf0.001"
    return q_flagship(sf_dir)


def q_flagship(sf_dir: str) -> Any:
    """cells + PIP join + tiles + grouped counts in one pipeline."""
    import pyarrow as pa

    from georay import ops, tpch
    from georay.joins import pip_join

    pts = tpch.lineitem_points(sf_dir)
    pts = ops.add_cell_column(pts, level=12, parent_level=6)
    joined = pip_join(
        pts,
        tpch.part_box_polygons(sf_dir),
        geometry_col="geometry",
        id_col="p_partkey",
        mode="left",
    )
    joined = ops.add_tile_columns(joined, zoom=6)
    hist = ops.salted_count(joined, "cell_parent", count_alias="n")
    return ops.top_k(hist, ["n", "cell_parent"], 50, descending=[True, False])


def queries() -> dict[str, Callable[[str], Any]]:
    from georay import tpch

    q = dict(tpch.QUERIES)
    q["flagship"] = q_flagship
    return q


def oracle_sql() -> dict[str, str]:
    from georay import tpch

    return dict(tpch.ORACLE)
