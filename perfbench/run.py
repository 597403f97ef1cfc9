#!/usr/bin/env python3
"""georay benchmark: one closed-loop client runs one workload's job again
and again on a local Ray started with ``num_cpus`` = nproc and pinned to
that many CPUs, and prints the result as one JSON line.

    python3 perfbench/run.py --workload enrich_images --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Inputs come from ``perfbench/gen.py``
for the seed and are cached, with their oracle, under ``.perfbench/``;
every job's output is checked against the oracle.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics from a traced
run (see ``perfbench/README.md``).  A job that raises, times out or fails
its oracle check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 2
# the second job of a session still starts a worker process
WARMUP_JOBS = 2
# host probe: repetitions before each job, and the probe time that
# defines host speed 1.0 (about its mean on the VM the bounds were set on)
PROBE_REPS = 3
PROBE_REF_S = 0.02
JOB_TIMEOUT_S = 60.0
KEEP_SEEDS = 12
# a socket path under Ray's temp dir must fit in 107 bytes
MAX_RAY_TEMP_LEN = 40

E2E_UNITS = {
    "rows_per_s": "rows/s",
    "job_tail_s": "s",
    "setup_s": "s",
    "driver_rss_mb": "MB",
    "output_bytes_per_row": "B/row",
}
LAYER_UNITS = {
    "cells.encode_s": "s",
    "cells.disk_s": "s",
    "index.build_s": "s",
    "index.pip_probe_s": "s",
    "index.pip_candidates_per_point": "ratio",
    "kernels.box_centroid_s": "s",
    "kernels.haversine_s": "s",
    "codecs.wkt_decode_s": "s",
    "codecs.wkt_encode_s": "s",
    "codecs.wkb_decode_s": "s",
    "codecs.wkb_encode_s": "s",
    "codecs.wkt_parser_rows": "count",
    "codecs.wkb_parser_rows": "count",
    "exchange.count": "count",
    "exchange.rows": "count",
    "exchange.s": "s",
    "pipeline.write_s": "s",
    "pipeline.validate_s": "s",
    "pipeline.histogram_s": "s",
    "pipeline.bytes_written": "bytes",
    "stages.signature_s": "s",
    "stages.candidate_pairs": "count",
    "stages.verified_pairs": "count",
    "stages.verify_yield": "ratio",
    "ray.task_overhead_ms": "ms",
    "ray.barrier_s": "s",
    "ray.broadcast_ms": "ms",
    "trace.overhead_rows_per_s": "rows/s",
    "trace.layer_share": "ratio",
}
# span name -> per-layer time metric (self time summed per job)
SPAN_METRICS = {
    "cells.encode": "cells.encode_s",
    "cells.disk": "cells.disk_s",
    "index.build": "index.build_s",
    "index.pip_probe": "index.pip_probe_s",
    "kernels.box_centroid": "kernels.box_centroid_s",
    "kernels.haversine": "kernels.haversine_s",
    "codecs.wkt_decode": "codecs.wkt_decode_s",
    "codecs.wkt_encode": "codecs.wkt_encode_s",
    "codecs.wkb_decode": "codecs.wkb_decode_s",
    "codecs.wkb_encode": "codecs.wkb_encode_s",
    "pipeline.write": "pipeline.write_s",
    "pipeline.validate": "pipeline.validate_s",
    "stages.signature": "stages.signature_s",
}
# the layer self-times that trace.layer_share adds up
LAYER_TIMES = (*SPAN_METRICS.values(), "pipeline.histogram_s")


def nproc() -> int:
    """What ``nproc`` prints: the usable CPUs, capped by OMP_NUM_THREADS."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0]
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def pin_cpus() -> list[int]:
    """Confine this process, and so every process Ray starts, to nproc
    CPUs: the last ones of the affinity mask, away from CPU 0, where most
    interrupts land.  Unpinned, Ray's processes ran on all of a VM's
    vCPUs and job time tracked the steal on all of them."""
    cpus = sorted(os.sched_getaffinity(0))[-nproc() :]
    os.sched_setaffinity(0, cpus)
    return cpus


class StealClock:
    """Wall time less the time the hypervisor held the pinned CPUs
    (``steal`` in /proc/stat), so a job's time is the time the host
    actually gave it.  Reads plain wall time where no steal is reported."""

    def __init__(self, cpus: list[int]):
        self.rows = {f"cpu{c}" for c in cpus}
        self.hz = os.sysconf("SC_CLK_TCK") * len(cpus)

    def steal_s(self) -> float:
        ticks = 0
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] in self.rows and len(fields) > 8:
                    ticks += int(fields[8])
        return ticks / self.hz

    def __call__(self) -> float:
        return time.perf_counter() - self.steal_s()


class HostProbe:
    """How fast the host runs the pinned CPUs right now.

    Times a fixed CPU-bound probe that never touches georay: Python dict
    updates, a NumPy sort, an Arrow kernel and a JSON round-trip.  Every
    process the benchmark started (Ray's included) is stopped meanwhile,
    so the probe sees the host and not work the benchmark left running.
    Time metrics are scaled by ``PROBE_REF_S`` / the run's mean probe:
    on a shared VM the same job's time moves by up to ±25% over minutes
    with load on the host that steal does not show, and the probe moves
    with it.  The mean, not the median: probe times switch between two
    levels every few seconds, and a job of a few seconds feels their
    time average."""

    def __init__(self, clock):
        import numpy as np
        import pyarrow as pa

        self.clock = clock
        rng = np.random.default_rng(0)
        self.floats = rng.random(100_000)
        self.ints = pa.array(rng.integers(0, 1000, 100_000))
        self.samples: list[float] = []

    def sample(self, reps: int = PROBE_REPS) -> None:
        import numpy as np
        import pyarrow.compute as pc

        stopped = []
        try:
            for pid in _descendants(os.getpid()):
                try:
                    os.kill(pid, signal.SIGSTOP)
                    stopped.append(pid)
                except ProcessLookupError:
                    pass
            for _ in range(reps):
                t0 = self.clock()
                d: dict[int, int] = {}
                for i in range(60_000):
                    d[i % 997] = d.get(i % 997, 0) + i
                np.sort(self.floats)
                pc.sum(pc.multiply(self.ints, 3))
                json.loads(json.dumps(list(range(10_000))))
                self.samples.append(self.clock() - t0)
        finally:
            for pid in stopped:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass

    def scale(self) -> float:
        """Factor that turns a time measured in this run into host-speed
        1.0 time."""
        return PROBE_REF_S / statistics.fmean(self.samples)


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], list(children.get(root, []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


class RssPeak:
    """Samples the driver's resident set every 10 ms while running."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _run(self):
        while not self._stop.wait(0.01):
            self.sample()

    def sample(self):
        with open("/proc/self/statm") as f:
            self.peak = max(self.peak, int(f.read().split()[1]) * self._page)

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


def run_job(wl, timeout: float, clock):
    """(seconds on ``clock``, result, error) of one job; a job still
    running after ``timeout`` is reported as an error and left to Ray's
    shutdown."""
    box = {}

    def target():
        try:
            box["result"] = wl.job()
        except Exception as e:  # any library failure is a failed job
            box["error"] = f"{type(e).__name__}: {e}"

    t0 = clock()
    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    dt = clock() - t0
    if th.is_alive():
        return dt, None, f"timeout after {timeout:.0f} s"
    return dt, box.get("result"), box.get("error")


def ray_init(trace_dir: str | None):
    import ray

    temp = os.path.join(STATE, "ray")
    kwargs = {}
    if len(temp) <= MAX_RAY_TEMP_LEN:
        kwargs["_temp_dir"] = temp
    else:
        print("checkout path too long for Ray sockets; Ray uses its default temp dir", file=sys.stderr)
    if trace_dir:
        kwargs["runtime_env"] = {"worker_process_setup_hook": "perfbench.tracing.worker_setup"}
    ray.init(
        num_cpus=nproc(),
        object_store_memory=512 * 2**20,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        # Ray's soft limit keeps num_cpus idle workers; a job needs more,
        # so every other job would start a fresh worker process
        _system_config={"kill_idle_workers_interval_ms": 0},
        **kwargs,
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def setup(wl, reps: int, trace_dir: str | None, clock, probe):
    """Times ``import georay`` once and then ``reps`` times ray.init plus
    the first untimed job; Ray stays up after the last repetition, and
    ``WARMUP_JOBS`` more untimed jobs fill its worker pool before any job
    is measured.  With ``trace_dir`` every Ray worker installs the span
    wrappers."""
    import ray

    t0 = clock()
    import georay  # noqa: F401
    import georay.joins  # noqa: F401
    import georay.pipeline  # noqa: F401
    import georay.stages.dedup  # noqa: F401

    import_s = clock() - t0
    times = []
    for i in range(reps):
        probe.sample()
        t0 = clock()
        ray_init(trace_dir)
        warm_up(wl, 1, clock)
        times.append(import_s + clock() - t0)
        if i < reps - 1:
            ray.shutdown()
    warm_up(wl, WARMUP_JOBS, clock)
    return times


def warm_up(wl, n: int, clock) -> None:
    for _ in range(n):
        _dt, result, err = run_job(wl, JOB_TIMEOUT_S, clock)
        if err:
            raise RuntimeError(f"warm-up job failed: {err}")
        wl.cleanup(result)


def measure(wl, seconds: float, clock, probe):
    """Closed loop: start the next job only after the last one ended and
    was checked, and only if a job of the median wall length so far still
    ends inside the window.  Returns one record per job."""
    jobs = []
    end = time.monotonic() + seconds
    while not jobs or time.monotonic() + statistics.median(j["t1"] - j["t0"] for j in jobs) <= end:
        probe.sample()
        t_start = time.monotonic()
        dt, result, err = run_job(wl, JOB_TIMEOUT_S, clock)
        t_end = time.monotonic()
        rec = {"s": dt, "ok": err is None, "err": err, "t0": t_start, "t1": t_end, "bytes": 0}
        if err is None:
            try:
                rec["ok"] = bool(wl.check(result))
                rec["bytes"] = wl.output_bytes(result)
            except Exception as e:  # an unreadable output fails the job
                rec["ok"], rec["err"] = False, f"check: {type(e).__name__}: {e}"
            if not rec["ok"] and rec["err"] is None:
                rec["err"] = "output does not match the oracle"
            wl.cleanup(result)
        jobs.append(rec)
        if err is not None and err.startswith("timeout"):
            break
    return jobs


def job_stats(wl, jobs):
    ok = [j["s"] for j in jobs if j["ok"]] or [j["s"] for j in jobs]
    times = sorted(j["s"] for j in jobs)
    n = len(times)
    # the highest percentile with at least ten samples beyond it, but never
    # below the median: under 21 jobs that percentile is the median, so
    # one job more or less does not jump the tail to the fastest job
    idx = max(n - 11, (n - 1) // 2)
    pct = 100.0 * (idx + 1) / n
    return {
        "rows_per_s": wl.rows / statistics.median(ok),
        "job_tail_s": times[idx],
        "tail_pct": pct,
        "n_jobs": n,
        "bytes": statistics.median([j["bytes"] for j in jobs if j["ok"]] or [0]),
    }


def env_record() -> dict:
    import pyarrow
    import ray

    du = shutil.disk_usage(ROOT)
    return {
        "nproc": nproc(),
        "loadavg": os.getloadavg(),
        "disk_free_gb": round(du.free / 2**30, 1),
        "disk_used_frac": round(1 - du.free / du.total, 3),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
    }


def ray_floors(inputs: str) -> dict:
    """The Ray runtime floors: a no-op map_batches job, a no-op groupby
    barrier, and ray.put + ray.get of the PIP index."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from georay.index import PolygonIndex

    def timed(fn, reps):
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        return statistics.median(out)

    def noop_map():
        rd.range(1, override_num_blocks=1).map_batches(_identity, batch_format="pyarrow").materialize()

    def barrier():
        rd.range(1000, override_num_blocks=4).map_batches(_key8, batch_format="pyarrow").groupby("k").map_groups(
            _identity, batch_format="pyarrow"
        ).materialize()

    idx = PolygonIndex.build(pq.read_table(os.path.join(inputs, "polygons.parquet")))
    return {
        "ray.task_overhead_ms": 1000 * timed(noop_map, 10),
        "ray.barrier_s": timed(barrier, 5),
        "ray.broadcast_ms": 1000 * timed(lambda: ray.get(ray.put(idx)), 10),
    }


def _identity(batch):
    return batch


def _key8(batch):
    import pyarrow.compute as pc

    return batch.append_column("k", pc.bit_wise_and(batch["id"], 7))


def layer_metrics(wl, jobs, spans, driver_pid) -> dict:
    """Per-layer metrics of the traced jobs, each the median over jobs."""
    from perfbench import tracing

    own = tracing.self_times(spans, driver_pid)
    per_job = []
    for j in jobs:
        js = [s for s in spans if j["t0"] <= s[3] <= j["t1"]]
        m = dict.fromkeys(LAYER_UNITS, 0.0)
        counts: dict[str, float] = {}
        probe_rows = 0
        flagship_end = validate_end = None
        for s in js:
            name, rows, cnt = s[0], s[5] or 0, s[6]
            if name in SPAN_METRICS:
                m[SPAN_METRICS[name]] += own[(s[7], s[1])]
            for k, v in cnt.items():
                counts[k] = counts.get(k, 0) + v
            if name == "index.pip_probe":
                probe_rows += rows
            elif name == "exchange":
                m["exchange.count"] += 1
                m["exchange.rows"] += rows
                m["exchange.s"] += cnt["wall_s"]
            elif name in ("stages.candidate_pairs", "stages.verified_pairs"):
                m[name] += rows
            elif name == "pipeline.flagship":
                flagship_end = s[4]
            elif name == "pipeline.validate":
                validate_end = s[4]
        if flagship_end is not None and validate_end is not None:
            m["pipeline.histogram_s"] = flagship_end - validate_end
        m["codecs.wkt_parser_rows"] = counts.get("codecs.wkt_parser_rows", 0)
        m["codecs.wkb_parser_rows"] = counts.get("codecs.wkb_parser_rows", 0)
        if probe_rows:
            m["index.pip_candidates_per_point"] = counts.get("index.candidates", 0) / probe_rows
        if m["stages.candidate_pairs"]:
            m["stages.verify_yield"] = m["stages.verified_pairs"] / m["stages.candidate_pairs"]
        if wl.name == "enrich_images":
            m["pipeline.bytes_written"] = j["bytes"]
        m["trace.layer_share"] = sum(m[k] for k in LAYER_TIMES) / (j["t1"] - j["t0"])
        per_job.append(m)
    return {k: statistics.median(m[k] for m in per_job) for k in LAYER_UNITS}


def prune_cache(cache: str, keep: str) -> None:
    seeds = sorted(
        (os.path.join(cache, d) for d in os.listdir(cache) if d.startswith("seed-") and "." not in d),
        key=os.path.getmtime,
    )
    for d in seeds[:-KEEP_SEEDS]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "georay", "__init__.py")):
        print("georay package not found beside perfbench/", file=sys.stderr)
        return 2
    sys.path[0] = ROOT
    from perfbench import gen, oracle, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    cpus = pin_cpus()
    clock = StealClock(cpus)
    probe = HostProbe(clock)
    cache = os.path.join(STATE, "cache")
    work = os.path.join(STATE, "work")
    for d in (work, os.path.join(STATE, "ray")):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(cache, exist_ok=True)
    os.makedirs(work)
    inputs = gen.ensure_inputs(cache, args.seed)
    os.utime(inputs)
    prune_cache(cache, inputs)
    wl = workloads.WORKLOADS[args.workload](inputs, work, oracle.load(inputs))

    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        os.environ[tracing.ENV_DIR] = trace_dir

    import ray

    try:
        setup_times = setup(wl, 1 if args.trace else SETUP_REPS, trace_dir, clock, probe)
        steal0 = clock.steal_s()
        if not args.trace:
            with RssPeak() as rss:
                jobs = measure(wl, args.seconds, clock, probe)
            st = job_stats(wl, jobs)
            k = probe.scale()
            metrics = {
                "rows_per_s": st["rows_per_s"] / k,
                "job_tail_s": st["job_tail_s"] * k,
                "setup_s": statistics.median(setup_times) * k,
                "driver_rss_mb": rss.peak / 2**20,
                "output_bytes_per_row": st["bytes"] / wl.rows,
            }
            units = E2E_UNITS
            detail = {
                "rows": wl.rows,
                "jobs": st["n_jobs"],
                "job_tail_s": f"p{st['tail_pct']:.1f} of {st['n_jobs']} jobs",
                "setup_s": [round(t, 3) for t in setup_times],
                "job_s": [round(j["s"], 3) for j in jobs],
                "job_wall_s": [round(j["t1"] - j["t0"], 3) for j in jobs],
                "host_scale": k,
                "probe_s": [round(p, 4) for p in probe.samples],
            }
        else:
            recorder = tracing.install(trace_dir, driver=True)
            plain = measure(wl, args.seconds / 2, clock, probe)
            tracing.set_enabled(trace_dir, True)
            jobs = measure(wl, args.seconds / 2, clock, probe)
            tracing.set_enabled(trace_dir, False)
            floors = ray_floors(inputs)
            recorder.flush()
            spans = tracing.load_spans(trace_dir)
            with open(os.path.join(STATE, f"spans-{wl.name}.jsonl"), "w") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))
            metrics = layer_metrics(wl, [j for j in jobs if j["ok"]] or jobs, spans, os.getpid())
            metrics.update(floors)
            traced_rate = job_stats(wl, jobs)["rows_per_s"]
            metrics["trace.overhead_rows_per_s"] = job_stats(wl, plain)["rows_per_s"] - traced_rate
            jobs = plain + jobs
            units = LAYER_UNITS
            detail = {"rows": wl.rows, "jobs": len(jobs), "spans": len(spans)}
    finally:
        ray.shutdown()

    failed = [j for j in jobs if not j["ok"]]
    detail["cpus"] = cpus
    detail["steal_s"] = round(clock.steal_s() - steal0, 2)
    detail.update(env_record())
    detail["errors"] = sorted({j["err"] for j in failed})[:5]
    print(json.dumps({"workload": wl.name, "seed": args.seed, **detail}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(jobs),
                "failed": len(failed),
                "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
