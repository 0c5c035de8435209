"""The one on-disk store: content-keyed JSON entries in one directory.

Every record the tool keeps across runs is one entry here: job and
swarm verdicts, and stream launch and launch-pair verdicts. Every key
comes from the one :func:`content_key`, which hashes the record's
kind, its material and :func:`repro.code_digest`, so an entry written
by other analysis code is a plain miss, never a stale answer.

Entries are one JSON file each under ``cache_dir/ab/abcdef....json``
(two-level fan-out keeps directories small on big corpora), written by
atomic rename. A reader passes its shape check to :meth:`ResultCache.
lookup`, the one read path: it tells a plain miss (no entry) from a
damaged entry (unreadable, not a JSON object, or rejected by the
check), and names what is wrong with the latter. ``repro cache stats``
and ``repro cache prune`` walk every entry, whatever its kind.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from typing import Callable, Optional, Tuple

from . import code_digest

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
