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

Entries live in the one content-keyed store
(:class:`repro.store.ResultCache`). The stored verdict is
byte-for-byte what the worker produced, so a cache hit reproduces the
original verdict exactly. Job and launch verdicts go in and out only
as :class:`~repro.service.jobs.JobResult` records, through
:func:`put_result` (which stores only a completed, not timed-out
verdict) and :func:`get_result`. An entry that does not parse, or
parses to the wrong shape, is a miss: the job is re-checked cold.
"""
from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Optional

from ..store import ResultCache, content_key
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


def cache_key(spec: JobSpec) -> str:
    """Key of one job's verdict: (canonical form, config fingerprint
    with the engine, checker code)."""
    return content_key("job", form=form_digest(spec.source),
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
