"""JobQueue: lifecycle, priorities, retries, leases, idempotent keys."""

import threading

import pytest

from repro.errors import CampaignError
from repro.jobs import JOB_STATUSES, JobQueue


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += float(seconds)


@pytest.fixture()
def queue(tmp_path):
    q = JobQueue(str(tmp_path / "jobs.db"))
    yield q
    q.close()


@pytest.fixture()
def clocked(tmp_path):
    clock = FakeClock()
    q = JobQueue(str(tmp_path / "jobs.db"), clock=clock)
    yield q, clock
    q.close()


def test_submit_claim_complete_roundtrip(queue):
    job = queue.submit("work", {"x": 1})
    assert job.status == "pending"
    assert job.payload == {"x": 1}

    claimed = queue.claim("w1")
    assert claimed.id == job.id
    assert claimed.status == "running"
    assert claimed.worker == "w1"
    assert claimed.attempts == 1

    done = queue.complete(claimed.id, {"answer": 42})
    assert done.status == "done"
    assert done.result == {"answer": 42}
    assert queue.claim("w1") is None


def test_claim_orders_by_priority_then_fifo(queue):
    low = queue.submit("work", priority=0)
    first_high = queue.submit("work", priority=5)
    second_high = queue.submit("work", priority=5)
    order = [queue.claim("w").id for _ in range(3)]
    assert order == [first_high.id, second_high.id, low.id]


def test_claim_filters_kinds(queue):
    queue.submit("alpha")
    beta = queue.submit("beta")
    claimed = queue.claim("w", kinds=("beta",))
    assert claimed.id == beta.id
    assert queue.claim("w", kinds=("gamma",)) is None


def test_submit_same_key_is_idempotent(queue):
    first = queue.submit("work", {"n": 1}, key="cell:a")
    again = queue.submit("work", {"n": 2}, key="cell:a")
    assert again.id == first.id
    assert again.payload == {"n": 1}  # original row untouched
    assert len(queue.list_jobs()) == 1

    queue.claim("w")
    running = queue.submit("work", key="cell:a")
    assert running.status == "running"  # still the same in-flight row


def test_submit_revives_failed_key(queue):
    job = queue.submit("work", key="cell:a")
    queue.claim("w")
    failed = queue.fail(job.id, "boom")
    assert failed.status == "failed"

    revived = queue.submit("work", key="cell:a")
    assert revived.id == job.id
    assert revived.status == "pending"
    assert revived.attempts == 0
    assert revived.error is None


def test_submit_revives_cancelled_key(queue):
    job = queue.submit("work", key="cell:a")
    assert queue.cancel(job.id)
    revived = queue.submit("work", key="cell:a")
    assert revived.status == "pending"


def test_fail_retries_with_exponential_backoff(clocked):
    queue, clock = clocked
    job = queue.submit("work", max_retries=2, backoff=10.0)

    queue.claim("w")
    retried = queue.fail(job.id, "first")
    assert retried.status == "pending"
    assert retried.not_before == pytest.approx(clock.now + 10.0)
    assert queue.claim("w") is None  # inside the backoff window
    clock.advance(10.0)

    queue.claim("w")
    retried = queue.fail(job.id, "second")
    assert retried.not_before == pytest.approx(clock.now + 20.0)
    clock.advance(20.0)

    queue.claim("w")
    dead = queue.fail(job.id, "third")
    assert dead.status == "failed"
    assert dead.error == "third"


def test_requeue_expired_recovers_dead_worker(clocked):
    queue, clock = clocked
    job = queue.submit("work", lease_ttl=30.0, max_retries=0)
    claimed = queue.claim("w1")
    assert claimed.lease_deadline == pytest.approx(clock.now + 30.0)

    assert queue.requeue_expired() == []  # lease still live
    clock.advance(31.0)
    requeued = queue.requeue_expired()
    assert [j.id for j in requeued] == [job.id]
    assert requeued[0].status == "pending"
    # Worker death must not consume the retry budget: the job is
    # claimable and failable exactly as before the crash.
    assert requeued[0].attempts == 0
    assert queue.claim("w2").worker == "w2"


def test_heartbeat_extends_lease_and_detects_loss(clocked):
    queue, clock = clocked
    job = queue.submit("work", lease_ttl=30.0)
    queue.claim("w1")
    clock.advance(20.0)
    assert queue.heartbeat(job.id, "w1")
    assert queue.get(job.id).lease_deadline == pytest.approx(clock.now + 30.0)
    assert not queue.heartbeat(job.id, "other-worker")
    queue.cancel(job.id)
    assert not queue.heartbeat(job.id, "w1")


def test_cancel_only_moves_live_jobs(queue):
    job = queue.submit("work")
    queue.claim("w")
    queue.complete(job.id)
    assert not queue.cancel(job.id)


def test_counts_and_list_jobs(queue):
    queue.submit("work", key="a")
    queue.submit("work", key="b")
    claimed = queue.claim("w")
    queue.complete(claimed.id)
    counts = queue.counts()
    assert set(counts) == set(JOB_STATUSES)
    assert counts["pending"] == 1
    assert counts["done"] == 1
    assert len(queue.list_jobs(kind="work")) == 2
    assert [j.key for j in queue.list_jobs(status="done")] == ["a"]
    with pytest.raises(CampaignError):
        queue.list_jobs(status="nonsense")


def test_by_key_and_get(queue):
    job = queue.submit("work", key="cell:a")
    assert queue.by_key("cell:a").id == job.id
    assert queue.by_key("missing") is None
    with pytest.raises(CampaignError):
        queue.get(9999)


def test_lease_ttl_must_be_positive(queue):
    with pytest.raises(CampaignError):
        queue.submit("work", lease_ttl=0.0)


def test_concurrent_claims_find_distinct_jobs(tmp_path):
    path = str(tmp_path / "jobs.db")
    seed_queue = JobQueue(path)
    for i in range(8):
        seed_queue.submit("work", {"i": i})
    seed_queue.close()

    claimed, lock = [], threading.Lock()

    def worker(name):
        q = JobQueue(path)
        try:
            while True:
                job = q.claim(name)
                if job is None:
                    return
                with lock:
                    claimed.append(job.id)
                q.complete(job.id)
        finally:
            q.close()

    threads = [
        threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(claimed) == sorted(set(claimed))
    assert len(claimed) == 8


def test_queue_survives_reopen(tmp_path):
    path = str(tmp_path / "jobs.db")
    q = JobQueue(path)
    job = q.submit("work", {"x": 1}, key="persisted")
    q.close()

    reopened = JobQueue(path)
    try:
        restored = reopened.by_key("persisted")
        assert restored.id == job.id
        assert restored.payload == {"x": 1}
    finally:
        reopened.close()
