"""Job bookkeeping for the long-running ``plimc serve`` endpoints.

``pareto`` sweeps and ``cost-loop`` runs take seconds to minutes — far
past any sane request deadline — so ``POST /jobs`` answers ``202`` with
a job id immediately and ``GET /jobs/<id>`` polls state and *streaming
progress* (every completed :class:`~repro.core.pareto.ParetoPoint` /
:class:`~repro.core.rewriting.CostLoopStep` appears as it lands, fed by
the ``progress=`` callbacks those drivers grew for exactly this).

The registry is plain thread-safe state: job functions run on executor
threads and append progress rows from there, while the event loop reads
snapshots.  Everything under one lock; snapshots are deep-enough copies
that readers never see a row mid-append.

In-flight dedup mirrors the compile path: a second submission of the
same ``(kind, raw circuit payload, params)`` while the first is still
running returns the *same* job id instead of spawning a duplicate sweep.

Finished records don't accumulate forever: the registry retains the
most recent ``max_finished`` done/failed jobs and evicts older ones
(their ids answer 404 afterwards) — a server that runs until SIGTERM
must not grow memory per job served.  Queued/running jobs are never
evicted regardless of the cap.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

#: a job's lifecycle: queued → running → done | failed
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One background job's mutable record (guard: the registry lock)."""

    id: str
    kind: str
    key: str
    state: str = "queued"
    progress: list = field(default_factory=list)
    result: Optional[dict] = None
    error: Optional[dict] = None
    created: float = 0.0
    seconds: Optional[float] = None


class JobRegistry:
    """Thread-safe job table with in-flight dedup by job key."""

    def __init__(self, max_finished: int = 256):
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}
        self._next = 0
        self._max_finished = max_finished

    def submit(self, kind: str, key: str) -> tuple[Job, bool]:
        """Create a job, or join the in-flight one with the same key.

        Returns ``(job, created)``; ``created=False`` means the caller
        deduplicated onto an already-running job.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                return self._jobs[existing], False
            self._next += 1
            job = Job(
                id=f"job-{self._next}",
                kind=kind,
                key=key,
                created=time.time(),
            )
            self._jobs[job.id] = job
            self._inflight[key] = job.id
            return job, True

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def start(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            if job.state == "queued":
                job.state = "running"

    def add_progress(self, job_id: str, item: dict) -> None:
        """Append one progress row (called from the job's thread).

        Rows arriving after the job already finished (a timed-out job's
        thread keeps running — CPython cannot cancel it) are dropped, so
        a failed job's report never mutates afterwards.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.state == "running":
                job.progress.append(dict(item))

    def finish(self, job_id: str, result: dict) -> None:
        with self._lock:
            job = self._jobs[job_id]
            if job.state not in ("queued", "running"):
                return
            job.state = "done"
            job.result = dict(result)
            job.seconds = time.time() - job.created
            self._inflight.pop(job.key, None)
            self._evict_finished_locked()

    def fail(self, job_id: str, error: dict) -> None:
        with self._lock:
            job = self._jobs[job_id]
            if job.state not in ("queued", "running"):
                return
            job.state = "failed"
            job.error = dict(error)
            job.seconds = time.time() - job.created
            self._inflight.pop(job.key, None)
            self._evict_finished_locked()

    def _evict_finished_locked(self) -> None:
        """Drop the oldest done/failed records past ``max_finished``.

        Insertion order of ``_jobs`` is submission order and ids are
        never reused, so "oldest" is simply the front of the dict;
        queued/running jobs are skipped (pinned) no matter their age.
        """
        finished = [
            job.id
            for job in self._jobs.values()
            if job.state in ("done", "failed")
        ]
        for job_id in finished[: max(0, len(finished) - self._max_finished)]:
            del self._jobs[job_id]

    def active_count(self) -> int:
        """Jobs still queued or running (the drain gate counts these)."""
        with self._lock:
            return sum(
                1 for j in self._jobs.values() if j.state in ("queued", "running")
            )

    def snapshot(self, job_id: str) -> Optional[dict]:
        """A consistent JSON-ready view of one job, or ``None``."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return {
                "id": job.id,
                "kind": job.kind,
                "state": job.state,
                "progress": [dict(p) for p in job.progress],
                "result": dict(job.result) if job.result is not None else None,
                "error": dict(job.error) if job.error is not None else None,
                "seconds": round(job.seconds, 6) if job.seconds is not None else None,
            }

    def summaries(self) -> list[dict]:
        """One line per job (``GET /jobs``), oldest first."""
        with self._lock:
            return [
                {
                    "id": job.id,
                    "kind": job.kind,
                    "state": job.state,
                    "progress_rows": len(job.progress),
                }
                for job in self._jobs.values()
            ]
