"""Content-addressed result cache for batch analysis.

A verdict is a pure function of *(canonical form, launch
configuration, engine, checker code)* — so that 4-tuple, hashed, is the
cache key. The canonical form is the SSA bytecode after the standard
pass pipeline plus every instruction's ``line:col``: a verdict names
source lines, so any edit that moves an access must miss, while edits
that move no instruction (CRLF line endings, a comment after the last
line) still hit. The checker code enters as
:func:`repro.code_digest`, a digest of the package sources, so an
entry written by other analysis code is never served. Every record key
stored here — job, swarm, stream launch and launch pair — comes from
the one :func:`content_key`, tagged with its kind.

Computing the canonical form costs a compile, so :func:`cache_key`
memoises it per process: a bounded LRU maps ``sha256(source)`` to
``sha256(canonical form)``, and each distinct source is compiled once.

Entries are one JSON file each under ``cache_dir/ab/abcdef....json``
(two-level fan-out keeps directories small on big corpora). The stored
verdict is byte-for-byte what the worker produced, so a cache hit
reproduces the original verdict exactly. Job and launch verdicts go
in and out only as :class:`~repro.service.jobs.JobResult` records,
through :meth:`ResultCache.put_result` (which stores only a completed,
not timed-out verdict) and :meth:`ResultCache.get_result`. An entry
that does not parse, or parses to the wrong shape, is a miss: the job
is re-checked cold.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Callable, Optional

from .. import code_digest
from .jobs import JobResult, JobSpec, JobStatus

#: distinct sources whose canonical-form digest :func:`cache_key` keeps
FORM_MEMO_SIZE = 1024

_form_memo: "OrderedDict[str, str]" = OrderedDict()
_form_lock = threading.Lock()


def canonical_form(source: str) -> str:
    """The post-pipeline SSA bytecode for *source*, followed by every
    instruction's ``line:col`` in IR order (cache-key input).

    Falls back to the raw source text when compilation fails — the job
    will fail identically in the worker, and that failure is just as
    deterministic a function of the source.
    """
    try:
        from ..frontend import compile_source
        from ..ir import instruction_locs, module_to_str
        from ..passes import standard_pipeline
        module = compile_source(source)
        standard_pipeline().run(module)
    except Exception:
        return f"<uncompilable>\n{source}"
    locs = [f"; locs @{fn.name}: {instruction_locs(fn)}"
            for fn in module.functions.values()]
    return "\n".join([module_to_str(module)] + locs)


def form_digest(source: str) -> str:
    """``sha256(canonical_form(source))``, compiled once per distinct
    source per process (LRU of :data:`FORM_MEMO_SIZE` entries).

    The compile runs under the memo's lock, so threads asking for the
    same new source compile it once between them.
    """
    key = hashlib.sha256(source.encode("utf-8")).hexdigest()
    with _form_lock:
        digest = _form_memo.get(key)
        if digest is None:
            digest = hashlib.sha256(
                canonical_form(source).encode("utf-8")).hexdigest()
            _form_memo[key] = digest
            while len(_form_memo) > FORM_MEMO_SIZE:
                _form_memo.popitem(last=False)
        else:
            _form_memo.move_to_end(key)
    return digest


def content_key(kind: str, **material) -> str:
    """The one content-key scheme: SHA-256 over the sorted JSON of
    *material*, tagged with its *kind* and :func:`repro.code_digest`.
    Keys of different kinds never collide, even on equal material, so
    every kind can share one :class:`ResultCache`."""
    blob = json.dumps(dict(material, kind=kind, code=code_digest()),
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_key(spec: JobSpec) -> str:
    """Key of one job's verdict: (canonical form, config fingerprint
    with the engine, checker code)."""
    return content_key("job", form=form_digest(spec.source),
                       config=spec.config_fingerprint())


#: the fields a reader of a stored result sets for itself, and the
#: ``check_stats`` view of the verdict's own: none is stored
_NOT_STORED = ("job_id", "attempts", "elapsed_seconds", "cached",
               "cache_key", "check_stats")


def _is_verdict_entry(entry: dict) -> bool:
    """Whether *entry* has the shape of a stored result: status
    ``done``, a ``verdict`` object whose races are objects and whose
    ``check_stats`` is an object or null, and optional ``inputs`` /
    ``repair`` objects."""
    verdict = entry.get("verdict")
    if entry.get("status") != JobStatus.DONE \
            or not isinstance(verdict, dict):
        return False
    races = verdict.get("races", [])
    return (isinstance(races, list)
            and all(isinstance(race, dict) for race in races)
            and isinstance(verdict.get("check_stats"), (dict, type(None)))
            and all(isinstance(entry.get(field), (dict, type(None)))
                    for field in ("inputs", "repair")))


class ResultCache:
    """JSON-on-disk verdict cache with hit/miss accounting."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def key_for(self, spec: JobSpec) -> str:
        return cache_key(spec)

    def get(self, key: str,
            valid: Optional[Callable[[dict], bool]] = None
            ) -> Optional[dict]:
        """The stored payload, or ``None`` on a miss. An entry that does
        not parse, is not a JSON object, or fails *valid* (the reader's
        shape check) counts as a miss, so the caller re-checks cold."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = None
        if not isinstance(payload, dict) \
                or (valid is not None and not valid(payload)):
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Persist a worker payload (atomic rename; last writer wins)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)

    def get_result(self, key: str, job_id: str) -> Optional[JobResult]:
        """The result stored under *key*, served to job *job_id* as a
        ``cached`` record (zero attempts, zero elapsed), or ``None`` on
        a miss; an entry of the wrong shape is a miss."""
        entry = self.get(key, _is_verdict_entry)
        if entry is None:
            return None
        result = JobResult.from_dict(entry)
        result.job_id, result.status = job_id, JobStatus.CACHED
        result.attempts, result.cached, result.cache_key = 0, True, key
        return result

    def put_result(self, key: str, result: JobResult) -> bool:
        """Store *result* under *key* if it is :attr:`~JobResult.
        definitive` — a failed or timed-out (partial) verdict is never
        stored. Returns whether it was."""
        if not result.definitive:
            return False
        entry = result.to_dict()
        for name in _NOT_STORED:
            del entry[name]
        self.put(key, entry)
        return True

    # ------------------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "lookups": self.lookups, "dir": self.cache_dir}

    # ------------------------------------------------------------------
    # operational maintenance (``repro cache`` / long-running daemons)
    # ------------------------------------------------------------------

    def _iter_entries(self):
        """(path, size_bytes, mtime) for every entry on disk."""
        for fanout in sorted(os.listdir(self.cache_dir)):
            subdir = os.path.join(self.cache_dir, fanout)
            if len(fanout) != 2 or not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(subdir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue   # pruned concurrently
                yield path, st.st_size, st.st_mtime

    def disk_stats(self) -> dict:
        """What is actually on disk (entry count, bytes, age span)."""
        entries = bytes_total = 0
        oldest = newest = None
        now = time.time()
        for _path, size, mtime in self._iter_entries():
            entries += 1
            bytes_total += size
            age = now - mtime
            oldest = age if oldest is None else max(oldest, age)
            newest = age if newest is None else min(newest, age)
        return {"dir": self.cache_dir, "entries": entries,
                "bytes": bytes_total,
                "oldest_age_seconds": (round(oldest, 3)
                                       if oldest is not None else None),
                "newest_age_seconds": (round(newest, 3)
                                       if newest is not None else None)}

    def prune(self, max_age_seconds: Optional[float] = None,
              max_bytes: Optional[int] = None) -> dict:
        """Bound the cache directory for long-running daemons.

        Two independent policies, applied in order: entries older than
        *max_age_seconds* are always evicted; then, if the survivors
        still exceed *max_bytes*, the oldest are evicted until the
        total fits (classic LRU-by-mtime — ``get`` does not bump
        mtimes, so this is strictly eviction by write age).
        """
        now = time.time()
        survivors = []
        removed = freed = 0
        for path, size, mtime in self._iter_entries():
            if max_age_seconds is not None \
                    and now - mtime > max_age_seconds:
                removed += 1
                freed += size
                self._remove(path)
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            survivors.sort()   # oldest first
            total = sum(size for _mtime, size, _path in survivors)
            while survivors and total > max_bytes:
                _mtime, size, path = survivors.pop(0)
                removed += 1
                freed += size
                total -= size
                self._remove(path)
        return {"removed": removed, "freed_bytes": freed,
                "kept": len(survivors), "dir": self.cache_dir}

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass   # already gone — eviction is idempotent


def trace_hit_rate(trace_path: str) -> Optional[dict]:
    """Lifetime hit-rate from a JSONL telemetry trace.

    The cache itself only counts hits/misses for the current process;
    the daemon's append-mode trace is the durable record. Returns
    ``None`` when the trace is missing/unreadable.
    """
    hits = misses = 0
    try:
        with open(trace_path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    event = json.loads(line)
                except ValueError:
                    continue   # torn write at the tail of a live trace
                if event.get("event") == "cache_hit":
                    hits += 1
                elif event.get("event") == "cache_miss":
                    misses += 1
    except OSError:
        return None
    lookups = hits + misses
    return {"hits": hits, "misses": misses, "lookups": lookups,
            "hit_rate": round(hits / lookups, 4) if lookups else None,
            "trace": trace_path}
