"""Span tracing of georay's layers, installed from outside the library.

``install(trace_dir)`` replaces the public functions listed in
``TARGETS`` with wrappers, in the driver and, through Ray's
``worker_process_setup_hook`` (``worker_setup``), in every Ray worker.
A wrapper records a span (name, start, end, parent, rows) when tracing
is on and calls straight through when it is off.  Counters (``COUNTERS``)
add rows to the innermost open span instead of opening one, because they
sit on per-row calls; each lies under a span-wrapped function.

Spans are kept in memory.  The driver writes its spans when the run
ends; a worker appends its buffered spans to ``spans-<pid>.jsonl`` each
time its outermost span closes, because Ray may kill a worker without
running exit handlers.  Tracing is on while the file ``<trace_dir>/on``
exists, so the driver can switch it for every process at once.

Wrappers pickle as a lookup of the wrapped name, so a driver-side closure
that captured a wrapped function finds the worker's own wrapper instead
of nesting one wrapper in another.

Exchanges are read from Ray Data's own operator stats: every all-to-all
or hash-shuffle operator that an execution ran adds a zero-length
``exchange`` span carrying its input rows and summed task wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

ENV_DIR = "PERFBENCH_TRACE_DIR"

# (module, attribute path, span name, rows argument)
TARGETS = (
    ("georay.cells", "cell_from_lonlat", "cells.encode", 0),
    ("georay.cells", "cell_parent", "cells.encode", 0),
    ("georay.cells", "mercator_tile", "cells.encode", 0),
    ("georay.cells", "tile_key", "cells.encode", 0),
    ("georay.cells", "grid_disk", "cells.disk", 0),
    ("georay.index", "PolygonIndex.build", "index.build", None),
    ("georay.index", "PolygonIndex.contains_first", "index.pip_probe", 1),
    ("georay.index", "PolygonIndex.contains", "index.pip_probe", 1),
    ("georay.kernels", "box", "kernels.box_centroid", 0),
    ("georay.kernels", "centroid", "kernels.box_centroid", 0),
    ("georay.kernels", "haversine_km", "kernels.haversine", 0),
    ("georay.codecs.wkt", "decode", "codecs.wkt_decode", 0),
    ("georay.codecs.wkt", "encode", "codecs.wkt_encode", 0),
    ("georay.codecs.wkb", "decode", "codecs.wkb_decode", 0),
    ("georay.codecs.wkb", "encode", "codecs.wkb_encode", 0),
    ("georay.stages.dedup", "minhash_signatures_batch", "stages.signature", 0),
    ("georay.pipeline", "run_flagship", "pipeline.flagship", None),
    ("georay.pipeline", "_shard_stats", "pipeline.validate", None),
    ("ray.data", "Dataset.write_parquet", "pipeline.write", None),
)

# (module, attribute path, counter name, how rows are counted):
# "call" counts calls, "result0" the length of the first result, and
# "dataset<i>" materializes the Dataset passed as argument i and records
# a span whose rows are its row count
COUNTERS = (
    ("georay.codecs.wkt", "parse_feature_wkt", "codecs.wkt_parser_rows", "call"),
    ("georay.codecs.wkb", "parse_feature", "codecs.wkb_parser_rows", "call"),
    ("georay.index", "PolygonIndex.candidates", "index.candidates", "result0"),
    ("georay.stages.dedup", "verify_pairs_distributed", "stages.candidate_pairs", "dataset1"),
    ("georay.stages.components", "connected_components", "stages.verified_pairs", "dataset0"),
)


class Recorder:
    """Per-process span store; one is installed per traced process."""

    def __init__(self, trace_dir: str, flush_each_root: bool):
        self.flag = os.path.join(trace_dir, "on")
        self.path = os.path.join(
            trace_dir, "spans-driver.jsonl" if not flush_each_root else f"spans-{os.getpid()}.jsonl"
        )
        self.flush_each_root = flush_each_root
        self.spans: list[list] = []
        self.local = threading.local()
        self.next_id = 0
        self.lock = threading.Lock()

    def stack(self) -> list:
        s = getattr(self.local, "stack", None)
        if s is None:
            s = self.local.stack = []
        return s

    def open(self, name: str, rows) -> list | None:
        stack = self.stack()
        if not stack and not os.path.exists(self.flag):
            return None
        with self.lock:
            self.next_id += 1
            sid = self.next_id
        parent = stack[-1][1] if stack else 0
        # [name, id, parent, start, end, rows, counters, pid]
        span = [name, sid, parent, time.monotonic(), 0.0, rows, {}, os.getpid()]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.monotonic()
        stack = self.stack()
        stack.pop()
        with self.lock:
            self.spans.append(span)
        if not stack and self.flush_each_root:
            self.flush()

    def count(self, name: str, n: int) -> None:
        """Add ``n`` to the innermost open span; uncounted outside spans."""
        stack = self.stack()
        if stack:
            c = stack[-1][6]
            c[name] = c.get(name, 0) + n

    def event(self, name: str, rows: int, counters: dict) -> None:
        """A zero-length span for something measured elsewhere."""
        now = time.monotonic()
        with self.lock:
            self.next_id += 1
            self.spans.append([name, self.next_id, 0, now, now, rows, counters, os.getpid()])

    def flush(self) -> None:
        with self.lock:
            spans, self.spans = self.spans, []
        if spans:
            with open(self.path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


_RECORDER: Recorder | None = None


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _nrows(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


class _Wrapper:
    """Callable stand-in for a library function; pickles by name."""

    def __init__(self, fn, module: str, attr: str, name: str, rows_arg, counter: str | None):
        functools.update_wrapper(self, fn)
        self.fn, self.module, self.attr = fn, module, attr
        self.name, self.rows_arg, self.counter = name, rows_arg, counter

    def __call__(self, *args, **kwargs):
        rec = _RECORDER
        if rec is None:
            return self.fn(*args, **kwargs)
        if self.counter == "call":
            rec.count(self.name, 1)
            return self.fn(*args, **kwargs)
        if self.counter == "result0":
            out = self.fn(*args, **kwargs)
            rec.count(self.name, _nrows(out[0]))
            return out
        if self.counter and self.counter.startswith("dataset"):
            return self._count_dataset(rec, int(self.counter[7:]), args, kwargs)
        rows = None
        if self.rows_arg is not None and len(args) > self.rows_arg:
            rows = _nrows(args[self.rows_arg])
        span = rec.open(self.name, rows)
        if span is None:
            return self.fn(*args, **kwargs)
        try:
            return self.fn(*args, **kwargs)
        finally:
            rec.close(span)

    def _count_dataset(self, rec: "Recorder", i: int, args, kwargs):
        span = rec.open(self.name, None)
        if span is None:
            return self.fn(*args, **kwargs)
        try:
            ds = args[i].materialize()
            span[5] = ds.count()
            return self.fn(*args[:i], ds, *args[i + 1 :], **kwargs)
        finally:
            rec.close(span)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return functools.partial(self, obj)

    def __reduce__(self):
        return (_resolve, (self.module, self.attr))


def _patch(module: str, attr: str, name: str, rows_arg, counter) -> None:
    mod = importlib.import_module(module)
    *owner_path, leaf = attr.split(".")
    owner = mod
    for part in owner_path:
        owner = getattr(owner, part)
    raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    if isinstance(raw, _Wrapper) or isinstance(getattr(raw, "__func__", None), _Wrapper):
        return
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw
    wrapper = _Wrapper(fn, module, attr, name, rows_arg, counter)
    setattr(owner, leaf, staticmethod(wrapper) if static else wrapper)
    if isinstance(owner, type):
        return
    # module-level ``from x import f`` bindings elsewhere in the library
    for mname, m in list(sys.modules.items()):
        if mname.startswith("georay") and m is not None and m is not mod:
            for k, v in list(vars(m).items()):
                if v is fn:
                    setattr(m, k, wrapper)


def _patch_exchange_stats() -> None:
    from ray.data._internal.execution import streaming_executor as se
    from ray.data._internal.execution.operators.base_physical_operator import AllToAllOperator
    from ray.data._internal.execution.operators.hash_shuffle import HashShufflingOperatorBase

    orig = se.StreamingExecutor.shutdown
    if getattr(orig, "_perfbench", False):
        return

    def shutdown(self, *args, **kwargs):
        first = not self._shutdown
        out = orig(self, *args, **kwargs)
        rec = _RECORDER
        if not first or rec is None or not os.path.exists(rec.flag):
            return out
        for op in list(self._topology):
            if not isinstance(op, (AllToAllOperator, HashShufflingOperatorBase)):
                continue
            wall = sum(
                s.exec_stats.wall_time_s
                for blocks in op.get_stats().values()
                for s in blocks
                if s.exec_stats is not None
            )
            rows = op.metrics.as_dict().get("num_row_inputs_received", 0)
            rec.event("exchange", rows, {"wall_s": wall})
        return out

    shutdown._perfbench = True
    se.StreamingExecutor.shutdown = shutdown


def install(trace_dir: str, driver: bool) -> Recorder:
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = Recorder(trace_dir, flush_each_root=not driver)
    patches = [(m, a, n, rows, None) for m, a, n, rows in TARGETS]
    patches += [(m, a, n, None, how) for m, a, n, how in COUNTERS]
    missing = []
    for module, attr, name, rows_arg, how in patches:
        try:
            _patch(module, attr, name, rows_arg, how)
        except (ImportError, AttributeError, KeyError):
            # a renamed or removed library function: its metric reads 0
            missing.append(f"{module}.{attr}")
    if driver:
        _patch_exchange_stats()
        if missing:
            print(f"tracing: not found, not traced: {', '.join(missing)}", file=sys.stderr)
    return _RECORDER


def worker_setup() -> None:
    """``worker_process_setup_hook`` entry: trace this Ray worker."""
    trace_dir = os.environ.get(ENV_DIR)
    if trace_dir:
        install(trace_dir, driver=False)


def set_enabled(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, "on")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def load_spans(trace_dir: str) -> list[list]:
    spans = []
    for f in sorted(os.listdir(trace_dir)):
        if f.startswith("spans-") and f.endswith(".jsonl"):
            with open(os.path.join(trace_dir, f)) as fh:
                spans += [json.loads(line) for line in fh if line.strip()]
    return spans


def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[list], driver_pid: int) -> dict[tuple[int, int], float]:
    """Self time per (pid, span id): the span's duration minus the part of
    it that its child spans cover.  A worker's outermost span counts as a
    child of the innermost driver span open when it started, because
    that driver call is what ran the worker's task."""
    driver = [s for s in spans if s[7] == driver_pid and s[4] > s[3]]
    children: dict[tuple[int, int], list] = {}
    for s in spans:
        if s[4] <= s[3]:
            continue
        parent = None
        if s[2]:
            parent = (s[7], s[2])
        elif s[7] != driver_pid:
            open_then = [d for d in driver if d[3] <= s[3] <= d[4]]
            if open_then:
                parent = (driver_pid, max(open_then, key=lambda d: d[3])[1])
        if parent:
            children.setdefault(parent, []).append((s[3], s[4]))
    return {
        (s[7], s[1]): (s[4] - s[3]) - _covered(s[3], s[4], children.get((s[7], s[1]), []))
        for s in spans
    }
