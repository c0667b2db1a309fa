"""In-process worker/coordinator tests (memory store, no subprocesses)."""

import threading

import numpy as np
import pytest

from repro.api import ExecutionContext, Session
from repro.errors import DistributedError
from repro.graphs import generators as gen
from repro.store import ArtifactStore, gram_key
from repro.distributed import DistributedJob, TileWorker, run_distributed_gram


@pytest.fixture
def graphs():
    return [
        gen.cycle_graph(6),
        gen.path_graph(7),
        gen.star_graph(7),
        gen.random_tree(8, seed=3),
        gen.complete_graph(5),
        gen.wheel_graph(6),
        gen.random_tree(7, seed=11),
    ]


@pytest.fixture
def ctx():
    return ExecutionContext(engine="batched", tile_size=3)


def reference_gram(name, graphs, ctx, **kwargs):
    return np.asarray(Session(ctx=ctx).gram(name, graphs, **kwargs))


class TestSingleWorker:
    @pytest.mark.parametrize("kernel_name", ["WLSK", "QJSK", "GCGK"])
    def test_byte_identical_to_session(self, graphs, ctx, kernel_name):
        store = ArtifactStore(f"mem:single-{kernel_name}")
        job = DistributedJob.submit(store, kernel_name, graphs, ctx=ctx)
        stats = job.run_inline(worker_id="w0")
        assert stats["computed"] == job.ledger.total()
        out = job.assemble(persist=False)
        ref = reference_gram(kernel_name, graphs, ctx)
        assert out.tobytes() == ref.tobytes()

    def test_normalized_byte_identical(self, graphs, ctx):
        store = ArtifactStore("mem:single-norm")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx, normalize=True)
        job.run_inline(worker_id="w0")
        out = job.assemble(persist=False)
        ref = reference_gram("WLSK", graphs, ctx, normalize=True)
        assert out.tobytes() == ref.tobytes()

    def test_max_tiles_stops_early(self, graphs, ctx):
        store = ArtifactStore("mem:single-max")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        worker = TileWorker(store, job.job_id, worker_id="w0")
        stats = worker.run(max_tiles=2)
        assert stats["computed"] == 2
        assert job.ledger.done_count() == 2

    def test_resumes_partial_job(self, graphs, ctx):
        store = ArtifactStore("mem:single-resume")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        TileWorker(store, job.job_id, worker_id="w0").run(max_tiles=2)
        # A second worker (fresh process in real life) finishes the rest.
        stats = TileWorker(store, job.job_id, worker_id="w1").run()
        assert stats["computed"] == job.ledger.total() - 2
        out = job.assemble(persist=False)
        ref = reference_gram("WLSK", graphs, ctx)
        assert out.tobytes() == ref.tobytes()


class TestCoordinator:
    def test_progress_counts(self, graphs, ctx):
        store = ArtifactStore("mem:coord-progress")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        before = job.progress()
        assert before["done"] == 0
        assert before["total"] == job.ledger.total()
        job.run_inline(worker_id="w0")
        after = job.progress()
        assert after["done"] == after["total"]
        assert after["active_leases"] == 0

    def test_attach_rebuilds_job(self, graphs, ctx):
        store = ArtifactStore("mem:coord-attach")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        again = DistributedJob.attach(store, job.job_id)
        assert again.spec == job.spec
        assert again.ledger.total() == job.ledger.total()

    def test_assemble_refuses_incomplete(self, graphs, ctx):
        store = ArtifactStore("mem:coord-incomplete")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        with pytest.raises(DistributedError, match="pending"):
            job.assemble()

    def test_wait_timeout_reports_progress(self, graphs, ctx):
        store = ArtifactStore("mem:coord-timeout")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        with pytest.raises(DistributedError, match="incomplete"):
            job.wait(timeout=0.05, poll=0.01)

    def test_assemble_persists_whole_gram(self, graphs, ctx):
        store = ArtifactStore("mem:coord-persist")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        job.run_inline(worker_id="w0")
        out = job.assemble()
        key = gram_key(job.kernel, graphs, normalize=False, ensure_psd=False)
        cached = store.get_array("gram", key)
        assert cached is not None
        assert np.asarray(cached).tobytes() == out.tobytes()
        # ... so a store-backed Session on the same store is a cache hit
        # that returns the assembled bytes.
        session_ctx = ctx.replace(store=store)
        hit = reference_gram("WLSK", graphs, session_ctx)
        assert hit.tobytes() == out.tobytes()

    def test_assemble_cleans_up_leases(self, graphs, ctx):
        store = ArtifactStore("mem:coord-cleanup")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        job.run_inline(worker_id="w0")
        job.assemble()
        assert store.list_keys("tile-lease") == []

    def test_run_distributed_gram_refuses_memory_store(self, graphs, ctx):
        with pytest.raises(DistributedError, match="dir"):
            run_distributed_gram(
                "WLSK", graphs, "mem:coord-refuse", workers=1, ctx=ctx
            )


class TestWorkStealingThreads:
    def test_two_workers_converge(self, graphs, ctx):
        # Thread-level convergence on the memory backend: same claim
        # protocol the directory backend gives separate processes.
        store = ArtifactStore("mem:threads-converge")
        job = DistributedJob.submit(store, "QJSK", graphs, ctx=ctx)
        results = {}

        def participate(worker_id):
            worker = TileWorker(store, job.job_id, worker_id=worker_id, poll=0.01)
            results[worker_id] = worker.run()

        threads = [
            threading.Thread(target=participate, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(stats["computed"] for stats in results.values())
        assert total == job.ledger.total()  # every tile landed exactly once
        out = job.assemble(persist=False)
        ref = reference_gram("QJSK", graphs, ctx)
        assert out.tobytes() == ref.tobytes()

    def test_expired_lease_is_stolen_and_job_completes(self, graphs, ctx):
        store = ArtifactStore("mem:threads-steal")
        job = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)
        # A "dead" worker claimed a tile and vanished: plant its stale
        # lease by hand with an already-expired timestamp.
        rows, cols, key = job.ledger.pending()[0]
        from repro.store import Lease

        stale = Lease(key=key, worker="dead", timestamp=1.0, ttl=0.001)
        store.put_bytes("tile-lease", key, stale.to_bytes(), suffix=".json")
        stats = TileWorker(store, job.job_id, worker_id="w0", ttl=5.0).run()
        assert stats["computed"] == job.ledger.total()
        out = job.assemble(persist=False)
        ref = reference_gram("WLSK", graphs, ctx)
        assert out.tobytes() == ref.tobytes()


class TestWatchMode:
    def test_watch_works_every_seeded_job(self, graphs, ctx):
        from repro.distributed import watch_jobs

        store = ArtifactStore("mem:watch-two")
        jobs = [
            DistributedJob.submit(store, name, graphs, ctx=ctx)
            for name in ("WLSK", "QJSK")
        ]
        totals = watch_jobs(store, worker_id="watcher", max_jobs=2)
        assert totals["jobs"] == 2
        assert totals["computed"] == sum(j.ledger.total() for j in jobs)
        for job, name in zip(jobs, ("WLSK", "QJSK")):
            out = job.assemble(persist=False)
            ref = reference_gram(name, graphs, ctx)
            assert out.tobytes() == ref.tobytes()

    def test_watch_idle_timeout_returns(self, ctx):
        from repro.distributed import watch_jobs

        store = ArtifactStore("mem:watch-idle")
        totals = watch_jobs(
            store, worker_id="watcher", watch_poll=0.01, idle_timeout=0.05
        )
        assert totals["jobs"] == 0
        assert totals["sweeps"] >= 1

    def test_watch_picks_up_jobs_seeded_later(self, graphs, ctx):
        from repro.distributed import watch_jobs

        store = ArtifactStore("mem:watch-late")
        seeded = {}

        def seed_after_delay():
            import time as _time

            _time.sleep(0.1)
            seeded["job"] = DistributedJob.submit(store, "WLSK", graphs, ctx=ctx)

        seeder = threading.Thread(target=seed_after_delay)
        seeder.start()
        # The watcher starts against an empty store; the job arrives
        # mid-watch and must still be worked to completion.
        totals = watch_jobs(
            store, worker_id="watcher", watch_poll=0.01, max_jobs=1
        )
        seeder.join()
        assert totals["jobs"] == 1
        assert not seeded["job"].ledger.pending()

    def test_worker_cli_requires_exactly_one_mode(self, capsys):
        from repro.distributed.worker import main

        with pytest.raises(SystemExit):
            main(["--store", "mem:cli-mode"])
        with pytest.raises(SystemExit):
            main(["--store", "mem:cli-mode", "--job", "x", "--watch"])
