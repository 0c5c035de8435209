"""The one on-disk store, and one compile per source.

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

A process compiles each source once, into a :class:`CompiledModule`
kept in a bounded LRU. :func:`cache_key` reads its digest; readers that
never write IR share it through :func:`shared_module`. A caller that
rewrites IR compiles its own module (:func:`repro.passes.
compile_module`).

Entries are JSON files under ``cache_dir/ab/abcdef....json``, written
by atomic rename; :meth:`ResultCache.lookup` is the one read path. The
stored verdict is byte-for-byte what the worker produced, so a cache
hit reproduces the original verdict exactly. Job and launch verdicts
go in and out only as :class:`~repro.service.jobs.JobResult` records,
through :func:`put_result` (which stores only a completed, not
timed-out verdict) and :func:`get_result`. An entry that does not
parse, or parses to the wrong shape, is a miss: the job is re-checked
cold.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .. import code_digest
from ..ir import Module, function_to_str, instruction_locs, module_to_str
from ..passes import TaintReport, analyze_taint, compile_module
from .jobs import JobResult, JobSpec, JobStatus

#: a reader's shape check: ``None`` if the payload is usable, else why not
Check = Callable[[dict], Optional[str]]


def content_key(kind: str, **material) -> str:
    """The one content-key scheme: SHA-256 over the sorted JSON of
    *material*, tagged with its *kind* and :func:`repro.code_digest`.
    Keys of different kinds never collide, even on equal material, so
    every kind can share one :class:`ResultCache`."""
    blob = json.dumps(dict(material, kind=kind, code=code_digest()),
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_entry_file(name: str) -> bool:
    """An entry, or the temp file of a write that never finished (a
    writer killed mid-:meth:`ResultCache.put` leaves one behind)."""
    return name.endswith(".json") or ".json.tmp." in name


class ResultCache:
    """JSON-on-disk content-keyed store with hit/miss accounting."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def lookup(self, key: str, check: Optional[Check] = None
               ) -> Tuple[Optional[dict], Optional[str]]:
        """``(payload, None)`` on a hit, ``(None, None)`` on a plain
        miss (no entry), ``(None, reason)`` on a damaged entry: one that
        does not parse, is not a JSON object, or that *check* (the
        reader's shape check) rejects. Both kinds of miss count as
        misses."""
        reason = None
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            payload = None
        except (OSError, ValueError) as exc:
            payload, reason = None, f"unreadable ({exc})"
        else:
            if not isinstance(payload, dict):
                reason = "not a JSON object"
            elif check is not None:
                reason = check(payload)
        hit = payload is not None and reason is None
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        return (payload, None) if hit else (None, reason)

    def get(self, key: str, check: Optional[Check] = None
            ) -> Optional[dict]:
        """The stored payload, or ``None`` on a miss: a damaged entry
        is a miss too, so the caller re-checks cold."""
        return self.lookup(key, check)[0]

    def put(self, key: str, payload: dict) -> bool:
        """Persist *payload* (atomic rename; last writer wins). Returns
        whether it was stored: a write that fails with an ``OSError``
        (full disk, unwritable directory) removes its temp file and
        returns False, since a store that cannot write only costs a
        later re-check."""
        path = self._path(key)
        tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            self._remove(tmp)
            return False
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
        """(path, size_bytes, mtime) for every entry on disk, and for
        every temp file an interrupted write left behind."""
        for fanout in sorted(os.listdir(self.cache_dir)):
            subdir = os.path.join(self.cache_dir, fanout)
            if len(fanout) != 2 or not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if not _is_entry_file(name):
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


# ----------------------------------------------------------------------
# one compile per source
# ----------------------------------------------------------------------

#: distinct sources whose :class:`CompiledModule` a process keeps
FORM_MEMO_SIZE = 256

_form_memo: "OrderedDict[str, CompiledModule]" = OrderedDict()
_form_lock = threading.Lock()


@dataclass(frozen=True)
class CompiledModule:
    """One source compiled once, shared by every reader in the process:
    readers must not write its IR, which the digest and the per-kernel
    facts were computed from. A source that does not compile has no
    module, and its compile failure as :attr:`error`."""

    digest: str                      # sha256 of the canonical form
    module: Optional[Module] = None
    error: Optional[Exception] = None
    #: kernel name -> (taint report, launch-key slice), filled on first
    #: use: a cache-key lookup needs neither
    _kernels: Dict[str, Tuple[TaintReport, str]] = field(
        default_factory=dict, repr=False)

    def taint(self, kernel: str) -> TaintReport:
        """The kernel's §V taint report."""
        return self._facts(kernel)[0]

    def kernel_slice(self, kernel: str) -> str:
        """What one stream launch of the kernel is keyed on: its own
        IR, the module globals (any kernel may touch them) and its
        instruction locations (the verdict names source lines)."""
        return self._facts(kernel)[1]

    def _facts(self, kernel: str) -> Tuple[TaintReport, str]:
        with _form_lock:
            if kernel not in self._kernels:
                fn = self.module.functions[kernel]
                lines = [f"{gv.name} {gv.storage_type!r} {gv.space}"
                         for gv in self.module.globals.values()]
                lines += [function_to_str(fn),
                          f"; locs {instruction_locs(fn)}"]
                self._kernels[kernel] = (analyze_taint(fn),
                                         "\n".join(lines))
            return self._kernels[kernel]


def _form_text(module: Module) -> str:
    locs = [f"; locs @{fn.name}: {instruction_locs(fn)}"
            for fn in module.functions.values()]
    return "\n".join([module_to_str(module)] + locs)


def canonical_form(source: str) -> str:
    """The post-pipeline SSA bytecode for *source*, followed by every
    instruction's ``line:col`` in IR order, from a fresh compile.

    Falls back to the raw source text when compilation fails — the job
    will fail identically in the worker, and that failure is just as
    deterministic a function of the source.
    """
    try:
        return _form_text(compile_module(source))
    except Exception:
        return f"<uncompilable>\n{source}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compile(source: str) -> CompiledModule:
    try:
        module = compile_module(source)
    except Exception as exc:
        return CompiledModule(_sha256(f"<uncompilable>\n{source}"),
                              error=exc.with_traceback(None))
    return CompiledModule(_sha256(_form_text(module)), module)


def _record(source: str) -> CompiledModule:
    """*source*'s record, compiled on first use (LRU of
    :data:`FORM_MEMO_SIZE` entries). The compile runs under the memo's
    lock, so threads asking for the same new source compile it once
    between them."""
    key = _sha256(source)
    with _form_lock:
        record = _form_memo.get(key)
        if record is None:
            record = _form_memo[key] = _compile(source)
            while len(_form_memo) > FORM_MEMO_SIZE:
                _form_memo.popitem(last=False)
        else:
            _form_memo.move_to_end(key)
    return record


def shared_module(source: str) -> CompiledModule:
    """The shared compile of *source*; raises its compile failure, the
    same exception to every caller."""
    record = _record(source)
    if record.error is not None:
        raise record.error.with_traceback(None)
    return record


def cache_key(spec: JobSpec) -> str:
    """Key of one job's verdict: (canonical form, config fingerprint
    with the engine, checker code)."""
    return content_key("job", form=_record(spec.source).digest,
                       config=spec.config_fingerprint())


#: the fields a reader of a stored result sets for itself, and the
#: ``check_stats`` view of the verdict's own: none is stored
_NOT_STORED = ("job_id", "attempts", "elapsed_seconds", "cached",
               "cache_key", "check_stats")


def _verdict_entry_problem(entry: dict) -> Optional[str]:
    """``None`` if *entry* has the shape of a stored result: status
    ``done``, a ``verdict`` object whose races are objects and whose
    ``check_stats`` is an object or null, and optional ``inputs`` /
    ``repair`` objects."""
    verdict = entry.get("verdict")
    if entry.get("status") != JobStatus.DONE \
            or not isinstance(verdict, dict):
        return "not a stored result"
    races = verdict.get("races", [])
    usable = (isinstance(races, list)
              and all(isinstance(race, dict) for race in races)
              and isinstance(verdict.get("check_stats"), (dict, type(None)))
              and all(isinstance(entry.get(field), (dict, type(None)))
                      for field in ("inputs", "repair")))
    return None if usable else "not a stored result"


def get_result(cache: ResultCache, key: str,
               job_id: str) -> Optional[JobResult]:
    """The result stored under *key*, served to job *job_id* as a
    ``cached`` record (zero attempts, zero elapsed), or ``None`` on a
    miss; an entry of the wrong shape is a miss."""
    entry = cache.get(key, _verdict_entry_problem)
    if entry is None:
        return None
    result = JobResult.from_dict(entry)
    result.job_id, result.status = job_id, JobStatus.CACHED
    result.attempts, result.cached, result.cache_key = 0, True, key
    return result


def put_result(cache: ResultCache, key: str, result: JobResult) -> bool:
    """Store *result* under *key* if it is :attr:`~JobResult.
    definitive` — a failed or timed-out (partial) verdict is never
    stored. Returns whether it was: a failed write is not an error."""
    if not result.definitive:
        return False
    entry = result.to_dict()
    for name in _NOT_STORED:
        del entry[name]
    return cache.put(key, entry)


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
