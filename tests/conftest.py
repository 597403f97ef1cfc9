import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def ray_executions(monkeypatch):
    """A list that gains one entry per Ray Data execution started while
    the test runs (``StreamingExecutor.execute`` calls); ``clear()`` it
    after any setup that executes."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    orig = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return calls


@pytest.fixture
def ray_write_tasks(monkeypatch):
    """A list that gains one entry per resumable shard write
    (``pipeline._write_shards``) finished while the test runs: the
    number of write tasks its execution ran."""
    from georay import pipeline

    tasks = []
    orig = pipeline._ShardSink.on_write_complete

    def counting(self, write_result):
        tasks.append(len(write_result.write_returns))
        return orig(self, write_result)

    monkeypatch.setattr(pipeline._ShardSink, "on_write_complete", counting)
    return tasks


@pytest.fixture
def cluster_cpus(monkeypatch):
    """``cluster_cpus(n)`` makes ``ray.cluster_resources()`` report ``n``
    CPUs for the rest of the test."""
    import ray

    def set_cpus(n):
        resources = {**ray.cluster_resources(), "CPU": float(n)}
        monkeypatch.setattr(ray, "cluster_resources", lambda: resources)

    return set_cpus


@pytest.fixture(scope="session")
def long_graphs():
    """Long-diameter undirected graphs as ``name -> (a, b)`` int64 edge
    arrays: a 64-node path with ascending ids, the same path with
    seeded-random ids, a 2x32 ladder, a 64-leaf star and two disjoint
    paths."""
    ids = np.arange(64, dtype=np.int64)
    rand = np.random.default_rng(7).permutation(10_000)[:64].astype(np.int64)
    rail = ids[:32]
    return {
        "path": (ids[:-1], ids[1:]),
        "random_path": (rand[:-1], rand[1:]),
        "ladder": (
            np.concatenate([rail[:-1], rail[:-1] + 32, rail]),
            np.concatenate([rail[1:], rail[1:] + 32, rail + 32]),
        ),
        "star": (np.full(64, 32, np.int64), np.delete(np.arange(65), 32)),
        "two_paths": (
            np.concatenate([ids[:31], ids[:31] + 100]),
            np.concatenate([ids[1:32], ids[1:32] + 100]),
        ),
    }
