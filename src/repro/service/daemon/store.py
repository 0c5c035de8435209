"""Durable job queue: SQLite-backed :class:`JobStore`.

The store is the single source of truth for the daemon — the API
process, every worker, and the reaper all talk to the same database
file, so any of them can crash and restart without losing work. Jobs
move ``queued → leased → done/failed``, with crash recovery folded
into the state machine: a leased job whose lease deadline passes is
*reclaimed* (back to ``queued``) until its attempt budget is spent,
after which it is ``dead``.

Concurrency model: one connection per thread (SQLite connections are
not thread-safe), WAL journal so readers never block the writer, and
``BEGIN IMMEDIATE`` around every state transition so claim/complete/
reap are serialised by the database itself — no in-process locks, which
is what lets workers live in *other processes* (or other machines on a
shared filesystem) and still claim safely.

Deduplication: submits are keyed on the :mod:`~repro.service.cache`
content fingerprint (canonical IR + config + engine + version). A
second submit of work that is already ``queued``/``leased``/``done``
returns the existing job id — many clients asking for the same check
collapse to one solver run, and all of them poll the same result.
"""
from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..jobs import JobSpec, JobState

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id         TEXT PRIMARY KEY,
    fingerprint    TEXT NOT NULL,
    spec           TEXT NOT NULL,
    state          TEXT NOT NULL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL DEFAULT 2,
    submitted_at   REAL NOT NULL,
    updated_at     REAL NOT NULL,
    lease_owner    TEXT,
    lease_deadline REAL,
    result         TEXT,
    error          TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs(state);
CREATE INDEX IF NOT EXISTS idx_jobs_fingerprint ON jobs(fingerprint);
CREATE INDEX IF NOT EXISTS idx_jobs_deadline ON jobs(lease_deadline);
"""


@dataclass
class JobRow:
    """One job as stored — spec plus queue bookkeeping."""

    job_id: str
    fingerprint: str
    spec: dict
    state: str
    attempts: int
    max_attempts: int
    submitted_at: float
    updated_at: float
    lease_owner: Optional[str] = None
    lease_deadline: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    #: why the stored spec is unusable (a damaged row: not JSON, or
    #: not a JSON object; :attr:`spec` is then empty), else ``None``
    spec_error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def status_dict(self, now: Optional[float] = None) -> dict:
        """The ``GET /status`` payload (no result body)."""
        now = time.time() if now is None else now
        out = {
            "job_id": self.job_id, "state": self.state,
            "fingerprint": self.fingerprint,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "age_seconds": round(now - self.submitted_at, 3),
            "terminal": self.terminal,
            "error": self.error,
        }
        if self.state == JobState.LEASED:
            out["lease"] = {
                "owner": self.lease_owner,
                "deadline_in_seconds":
                    round((self.lease_deadline or now) - now, 3),
            }
        return out


def _decode_object(text, column: str) -> Tuple[Optional[dict],
                                               Optional[str]]:
    """A stored JSON-object column, plus the ``invalid job <column>``
    error a damaged one fails its job with (``None`` when the column
    holds a JSON object)."""
    try:
        value = json.loads(text)
    except (TypeError, ValueError):
        return None, f"invalid job {column}: not JSON"
    if not isinstance(value, dict):
        return None, (f"invalid job {column}: expected an object, got "
                      f"{type(value).__name__}")
    return value, None


class JobStore:
    """The durable queue. All methods are safe to call from any thread
    of any process sharing the database file."""

    def __init__(self, db_path: str,
                 default_max_attempts: int = 2) -> None:
        self.db_path = db_path
        self.default_max_attempts = max(1, default_max_attempts)
        self._local = threading.local()
        parent = os.path.dirname(os.path.abspath(db_path))
        os.makedirs(parent, exist_ok=True)
        self._conn().executescript(_SCHEMA)

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.db_path, timeout=30.0)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            self._local.conn = conn
        return conn

    @contextmanager
    def _tx(self):
        """``BEGIN IMMEDIATE`` transaction scope (the write lock is
        taken up front, so read-then-update sequences are atomic)."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn.cursor()
        except BaseException:
            conn.rollback()
            raise
        else:
            conn.commit()

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------
    # submit / read
    # ------------------------------------------------------------------

    @staticmethod
    def _row_to_job(row: sqlite3.Row) -> JobRow:
        spec, spec_error = _decode_object(row["spec"], "spec")
        state, error = row["state"], row["error"]
        result = None
        if row["result"]:
            result, result_error = _decode_object(row["result"], "result")
            if result_error is not None:
                # a damaged verdict reads as a failed job, never as a
                # done one without a result
                state, error = JobState.FAILED, result_error
        return JobRow(
            job_id=row["job_id"], fingerprint=row["fingerprint"],
            spec=spec if spec is not None else {}, spec_error=spec_error,
            state=state, attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            submitted_at=row["submitted_at"],
            updated_at=row["updated_at"],
            lease_owner=row["lease_owner"],
            lease_deadline=row["lease_deadline"],
            result=result, error=error)

    def submit(self, spec: JobSpec, fingerprint: str,
               max_attempts: Optional[int] = None,
               state: str = JobState.QUEUED,
               result: Optional[dict] = None,
               ) -> Tuple[str, bool]:
        """Enqueue *spec*; returns ``(job_id, deduped)``.

        Idempotent on *fingerprint*: if an equivalent job is already
        queued, leased, waiting, or done, its id is returned and
        nothing is inserted. Jobs that ended ``failed``/``dead`` do NOT
        block a resubmit — the caller may have fixed the environment.

        *state* defaults to ``queued``; swarm parents are inserted
        ``waiting`` (no worker ever claims them — the merger finishes
        them once their shard jobs are terminal), and a cached merged
        verdict can be inserted directly ``done`` with *result*.
        """
        now = time.time()
        job_id = "job-" + uuid.uuid4().hex[:12]
        with self._tx() as cur:
            cur.execute(
                "SELECT * FROM jobs WHERE fingerprint = ? AND "
                "state IN (?, ?, ?, ?) ORDER BY submitted_at",
                (fingerprint,) + JobState.SHARABLE)
            for row in cur.fetchall():
                # a done row whose result is damaged reads as failed
                if self._row_to_job(row).state in JobState.SHARABLE:
                    return row["job_id"], True
            cur.execute(
                "INSERT INTO jobs (job_id, fingerprint, spec, state, "
                "attempts, max_attempts, submitted_at, updated_at, "
                "result) VALUES (?, ?, ?, ?, 0, ?, ?, ?, ?)",
                (job_id, fingerprint, json.dumps(spec.to_dict()),
                 state, max_attempts or self.default_max_attempts,
                 now, now,
                 json.dumps(result) if result is not None else None))
        return job_id, False

    def get(self, job_id: str) -> Optional[JobRow]:
        cur = self._conn().execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,))
        row = cur.fetchone()
        return self._row_to_job(row) if row is not None else None

    def list_jobs(self, state: Optional[str] = None,
                  limit: int = 100) -> List[JobRow]:
        if state is None:
            cur = self._conn().execute(
                "SELECT * FROM jobs ORDER BY submitted_at LIMIT ?",
                (limit,))
        else:
            cur = self._conn().execute(
                "SELECT * FROM jobs WHERE state = ? "
                "ORDER BY submitted_at LIMIT ?", (state, limit))
        return [self._row_to_job(r) for r in cur.fetchall()]

    # ------------------------------------------------------------------
    # lease lifecycle
    # ------------------------------------------------------------------

    def claim(self, owner: str,
              lease_ttl: float) -> Optional[JobRow]:
        """Atomically lease the oldest queued job to *owner*."""
        now = time.time()
        with self._tx() as cur:
            cur.execute(
                "SELECT * FROM jobs WHERE state = ? "
                "ORDER BY submitted_at LIMIT 1", (JobState.QUEUED,))
            row = cur.fetchone()
            if row is None:
                return None
            cur.execute(
                "UPDATE jobs SET state = ?, lease_owner = ?, "
                "lease_deadline = ?, attempts = attempts + 1, "
                "updated_at = ? WHERE job_id = ?",
                (JobState.LEASED, owner, now + lease_ttl, now,
                 row["job_id"]))
        job = self._row_to_job(row)
        job.state = JobState.LEASED
        job.lease_owner = owner
        job.lease_deadline = now + lease_ttl
        job.attempts += 1
        return job

    def heartbeat(self, job_id: str, owner: str,
                  lease_ttl: float) -> bool:
        """Extend *owner*'s lease; False means the lease was lost
        (expired + reclaimed, or completed elsewhere) and the worker
        must abandon the job."""
        now = time.time()
        with self._tx() as cur:
            cur.execute(
                "UPDATE jobs SET lease_deadline = ?, updated_at = ? "
                "WHERE job_id = ? AND state = ? AND lease_owner = ?",
                (now + lease_ttl, now, job_id, JobState.LEASED, owner))
            return cur.rowcount == 1

    def complete(self, job_id: str, owner: str, result: dict,
                 state: str = JobState.DONE,
                 error: Optional[str] = None) -> bool:
        """Record a terminal outcome; only the lease owner may write
        (a reclaimed zombie's late result is dropped)."""
        now = time.time()
        with self._tx() as cur:
            cur.execute(
                "UPDATE jobs SET state = ?, result = ?, error = ?, "
                "lease_owner = NULL, lease_deadline = NULL, "
                "updated_at = ? "
                "WHERE job_id = ? AND state = ? AND lease_owner = ?",
                (state, json.dumps(result), error, now,
                 job_id, JobState.LEASED, owner))
            return cur.rowcount == 1

    def finish_waiting(self, job_id: str, result: dict,
                       state: str = JobState.DONE,
                       error: Optional[str] = None) -> bool:
        """Resolve a ``waiting`` swarm parent to a terminal state.

        Parents are never leased — no worker runs them — so the usual
        owner check in :meth:`complete` does not apply; the guard here
        is the state itself (only one merger transition can win)."""
        now = time.time()
        with self._tx() as cur:
            cur.execute(
                "UPDATE jobs SET state = ?, result = ?, error = ?, "
                "updated_at = ? WHERE job_id = ? AND state = ?",
                (state, json.dumps(result), error, now,
                 job_id, JobState.WAITING))
            return cur.rowcount == 1

    def release(self, job_id: str, owner: str,
                error: Optional[str] = None) -> str:
        """Give a leased job back after a worker-side crash: requeue
        while attempts remain, else ``dead``. Returns the new state
        ('' when the lease was already lost)."""
        now = time.time()
        with self._tx() as cur:
            cur.execute(
                "SELECT attempts, max_attempts FROM jobs "
                "WHERE job_id = ? AND state = ? AND lease_owner = ?",
                (job_id, JobState.LEASED, owner))
            row = cur.fetchone()
            if row is None:
                return ""
            new_state = JobState.QUEUED \
                if row["attempts"] < row["max_attempts"] \
                else JobState.DEAD
            cur.execute(
                "UPDATE jobs SET state = ?, lease_owner = NULL, "
                "lease_deadline = NULL, error = ?, updated_at = ? "
                "WHERE job_id = ?",
                (new_state, error, now, job_id))
        return new_state

    def reap_expired(self,
                     now: Optional[float] = None) -> List[Tuple[str, str]]:
        """Reclaim every lease whose deadline has passed. Returns
        ``[(job_id, new_state), ...]`` — ``queued`` for retries,
        ``dead`` once the attempt budget is spent."""
        now = time.time() if now is None else now
        reclaimed: List[Tuple[str, str]] = []
        with self._tx() as cur:
            cur.execute(
                "SELECT job_id, attempts, max_attempts FROM jobs "
                "WHERE state = ? AND lease_deadline < ?",
                (JobState.LEASED, now))
            for row in cur.fetchall():
                new_state = JobState.QUEUED \
                    if row["attempts"] < row["max_attempts"] \
                    else JobState.DEAD
                error = None if new_state == JobState.QUEUED else \
                    (f"lease expired after {row['attempts']} "
                     f"attempt(s); retry budget exhausted")
                cur.execute(
                    "UPDATE jobs SET state = ?, lease_owner = NULL, "
                    "lease_deadline = NULL, error = ?, updated_at = ? "
                    "WHERE job_id = ?",
                    (new_state, error, now, row["job_id"]))
                reclaimed.append((row["job_id"], new_state))
        return reclaimed

    # ------------------------------------------------------------------
    # queue health
    # ------------------------------------------------------------------

    def counts(self) -> dict:
        cur = self._conn().execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state")
        return {row["state"]: row["n"] for row in cur.fetchall()}

    def queue_stats(self, now: Optional[float] = None) -> dict:
        """The health snapshot behind ``GET /queue`` and the
        ``queue_sample`` telemetry event."""
        now = time.time() if now is None else now
        counts = self.counts()
        cur = self._conn().execute(
            "SELECT MIN(submitted_at) AS oldest FROM jobs "
            "WHERE state = ?", (JobState.QUEUED,))
        row = cur.fetchone()
        oldest = row["oldest"] if row is not None else None
        cur = self._conn().execute(
            "SELECT lease_owner, COUNT(*) AS n, "
            "MIN(lease_deadline) AS next_deadline "
            "FROM jobs WHERE state = ? GROUP BY lease_owner",
            (JobState.LEASED,))
        leases = {row["lease_owner"]:
                  {"jobs": row["n"],
                   "next_deadline_in_seconds":
                       round(row["next_deadline"] - now, 3)}
                  for row in cur.fetchall()}
        return {
            "depth": counts.get(JobState.QUEUED, 0),
            "leased": counts.get(JobState.LEASED, 0),
            "waiting": counts.get(JobState.WAITING, 0),
            "by_state": counts,
            "oldest_age_seconds": (round(now - oldest, 3)
                                   if oldest is not None else None),
            "leases": leases,
        }
