"""Durable job scheduling: a sqlite-persisted priority queue.

The queue behind the HTTP serving layer's ``POST /train``
(:mod:`repro.serve.server`): training runs are submitted as
:class:`QueuedJob` records that survive process death — statuses,
retries with backoff, cancellation and lease-style requeue all live in
one crash-safe sqlite file.
"""

from repro.jobs.queue import (
    JOB_STATUSES,
    JobQueue,
    QueuedJob,
)

__all__ = [
    "JOB_STATUSES",
    "JobQueue",
    "QueuedJob",
]
