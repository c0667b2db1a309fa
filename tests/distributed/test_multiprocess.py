"""Multi-process convergence: subprocess workers, SIGKILL recovery, and
two concurrent store-backed writers sharing one directory store."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api import ExecutionContext, Session
from repro.datasets import load_dataset
from repro.distributed import DistributedJob, run_distributed_gram
from repro.distributed.coordinator import spawn_worker


@pytest.fixture(scope="module")
def mutag_graphs():
    return load_dataset("MUTAG", scale=0.25).graphs


@pytest.fixture
def ctx():
    return ExecutionContext(engine="batched", tile_size=8)


def test_workers_converge_and_match_single_process(tmp_path, mutag_graphs, ctx):
    ref = np.asarray(Session(ctx=ctx).gram("WLSK", mutag_graphs))
    out = run_distributed_gram(
        "WLSK",
        mutag_graphs,
        f"dir:{tmp_path / 'store'}",
        workers=2,
        ctx=ctx,
        timeout=120,
    )
    assert out.tobytes() == ref.tobytes()


def test_sigkill_mid_run_still_byte_identical(tmp_path, mutag_graphs, ctx):
    # Three workers race a 21-tile HAQJSK job with an artificial per-tile
    # delay; one is SIGKILLed mid-run. Its expired leases are stolen and
    # the survivors converge on the byte-identical matrix.
    ref = np.asarray(Session(ctx=ctx).gram("HAQJSK(A)", mutag_graphs, normalize=True))
    job = DistributedJob.submit(
        f"dir:{tmp_path / 'store'}",
        "HAQJSK(A)",
        mutag_graphs,
        ctx=ctx,
        normalize=True,
        ttl=1.5,
    )
    procs = [
        spawn_worker(
            job.store.address, job.job_id, worker_id=f"w{i}", ttl=1.5,
            tile_delay=0.15,
        )
        for i in range(3)
    ]
    try:
        # Kill w0 only once it holds a lease, so the steal path always runs.
        deadline = time.monotonic() + 120
        while "w0" not in job.progress()["workers"]:
            assert procs[0].poll() is None, "w0 exited before taking a lease"
            assert time.monotonic() < deadline, "w0 never took a lease"
            time.sleep(0.05)
        procs[0].kill()  # SIGKILL: no cleanup, leases left dangling
        job.wait(timeout=180)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    assert not job.ledger.pending()
    out = job.assemble(persist=False)
    assert out.tobytes() == ref.tobytes()


_CONCURRENT_WRITER = """
import sys
import numpy as np
from repro.api import ExecutionContext, Session
from repro.datasets import load_dataset

store_root, out_path = sys.argv[1], sys.argv[2]
graphs = load_dataset("MUTAG", scale=0.25).graphs
ctx = ExecutionContext(engine="batched", tile_size=8, store=store_root)
gram = Session(ctx=ctx).gram("WLSK", graphs)
np.save(out_path, np.asarray(gram))
"""


def test_concurrent_store_backed_writers_converge(tmp_path, mutag_graphs, ctx):
    # Two unsynchronised processes compute the same store-backed Gram
    # against one directory simultaneously. Tile commits are idempotent
    # CAS writes and the whole-Gram put is atomic, so both land on the
    # same bytes — worst case is duplicate work, never a torn artifact.
    store_root = str(tmp_path / "store")
    outs = [str(tmp_path / f"out-{i}.npy") for i in range(2)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CONCURRENT_WRITER, store_root, out],
            env=os.environ.copy(),
        )
        for out in outs
    ]
    for proc in procs:
        assert proc.wait(timeout=300) == 0
    a, b = (np.load(out) for out in outs)
    assert a.tobytes() == b.tobytes()
    ref = np.asarray(Session(ctx=ctx).gram("WLSK", mutag_graphs))
    assert a.tobytes() == ref.tobytes()
