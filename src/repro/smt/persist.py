"""Cross-run warm-start persistence for incremental solver sessions.

A :class:`~repro.smt.session.SolverSession` owns three artifacts that
are expensive to rebuild and pure functions of the preamble:

* the blasted preamble CNF snapshot (clauses + variable maps),
* the retained preamble-only learned clauses,
* the query memo (canonical goal -> verdict, with SAT witness values),
* the pair memo (canonical access-pair digest -> race verdict), which
  lets a warm re-check skip even the pre-solver pruning pipeline for
  pairs whose inputs are unchanged.

All three survive a process boundary: this module serialises them into
a content-addressed on-disk store keyed by a *canonical fingerprint* of
the preamble terms plus the blaster/tool version. A later run with the
same preamble adopts the artifact instead of re-lowering, and replays
memoized verdicts without touching the SAT core.

Safety model: a warm start must NEVER change a verdict.

* The fingerprint is a full-depth canonical serialisation — any
  preamble difference, however deep, misses the cache.
* The artifact embeds the format and tool versions; any mismatch (old
  artifact, different encoder) cold-starts with a warning.
* Corrupted or truncated artifacts (torn writes, disk faults) fail
  JSON/structural validation and cold-start with a warning.
* Replayed SAT verdicts carry their witness values, which the caller
  re-validates by evaluation before trusting them (see
  ``RaceChecker._solve``); an UNSAT replay is backed by the fingerprint
  match — the artifact's memo was recorded under the identical
  preamble by the identical encoder.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .. import code_digest
from .terms import Term

#: bump when the artifact layout or the CNF encoding changes in any way
#: that makes old snapshots meaningless (gate folding, template layout,
#: variable numbering). Version-skewed artifacts are ignored, not
#: migrated — they are a cache, the cold path recomputes everything.
FORMAT_VERSION = 1

#: canonical-string memo: Terms are interned and identity-hashed, so a
#: weak-keyed map gives every term a stable canonical string computed
#: once per process without pinning the term alive.
_canon_cache: "weakref.WeakKeyDictionary[Term, str]" = \
    weakref.WeakKeyDictionary()


def canonical_term(term: Term) -> str:
    """A full-depth canonical digest of *term* (64 hex chars).

    Unlike ``str(term)`` (the printer elides deep subterms), this never
    truncates: two terms share a digest iff they are structurally
    identical (up to SHA-256 collisions). Digests compose bottom-up —
    ``digest(node) = H(op | sort | payload | child digests)`` — and are
    memoized per node in a weak map, so across many queries each term
    node is hashed exactly once per process.
    """
    hit = _canon_cache.get(term)
    if hit is not None:
        return hit
    cache = _canon_cache
    stack: List[Tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in cache:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.args:
                if child not in cache:
                    stack.append((child, False))
            continue
        kids = ",".join(cache[c] for c in node.args)
        material = f"{node.op}|{node.sort}|{node.payload!r}|{kids}"
        cache[node] = hashlib.sha256(
            material.encode("utf-8")).hexdigest()
    return cache[term]


def preamble_fingerprint(preamble: Sequence[Term]) -> str:
    """Content hash identifying a preamble up to conjunct order."""
    digest = hashlib.sha256()
    for canon in sorted(canonical_term(t) for t in preamble):
        digest.update(canon.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _validate_artifact(artifact: object) -> Optional[str]:
    """Structural/version check; returns a reason string if unusable."""
    if not isinstance(artifact, dict):
        return "artifact is not an object"
    if artifact.get("format") != FORMAT_VERSION:
        return (f"format version skew "
                f"(artifact {artifact.get('format')!r}, "
                f"expected {FORMAT_VERSION})")
    if artifact.get("tool") != code_digest():
        return (f"tool version skew (artifact {artifact.get('tool')!r}, "
                f"running {code_digest()})")
    snap = artifact.get("snapshot")
    if not isinstance(snap, dict):
        return "missing snapshot"
    if not isinstance(snap.get("num_vars"), int) \
            or not isinstance(snap.get("clauses"), list) \
            or not isinstance(snap.get("var_bits"), dict) \
            or not isinstance(snap.get("bool_vars"), dict):
        return "malformed snapshot"
    if not isinstance(artifact.get("learnts"), list):
        return "malformed learnts"
    memo = artifact.get("memo")
    if not isinstance(memo, list):
        return "malformed memo"
    for entry in memo:
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], str)
                or entry[1] not in ("sat", "unsat")
                or not (entry[2] is None or isinstance(entry[2], dict))):
            return "malformed memo entry"
    pairs = artifact.get("pairs", {})
    if not isinstance(pairs, dict):
        return "malformed pairs"
    for digest, verdict in pairs.items():
        if not isinstance(digest, str):
            return "malformed pair digest"
        if verdict is None:
            continue
        if (not isinstance(verdict, list) or len(verdict) != 2
                or not isinstance(verdict[0], dict)
                or not isinstance(verdict[1], bool)):
            return "malformed pair verdict"
    return None


class SolverArtifactStore:
    """Content-addressed solver artifacts under ``<cache_dir>/solver/``.

    Lives beside the verdict cache (:class:`repro.service.cache.
    ResultCache`) in the same directory tree, but in its own ``solver/``
    namespace — the verdict cache's two-hex-char fan-out walk never sees
    it, and ``repro cache stats``/``prune`` account for it separately.
    """

    SUBDIR = "solver"

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self.root = os.path.join(cache_dir, self.SUBDIR)
        self.loads = 0
        self.load_hits = 0
        self.saves = 0

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint[:2],
                            fingerprint + ".json")

    # ------------------------------------------------------------------

    def load(self, fingerprint: str
             ) -> Tuple[Optional[dict], Optional[str]]:
        """``(artifact, warning)`` — exactly one is non-None, except a
        plain miss which is ``(None, None)``."""
        self.loads += 1
        path = self._path(fingerprint)
        if not os.path.exists(path):
            return None, None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                artifact = json.load(fh)
        except (OSError, ValueError) as exc:
            return None, (f"solver artifact {fingerprint[:12]} unreadable "
                          f"({exc}); cold-starting")
        reason = _validate_artifact(artifact)
        if reason is not None:
            return None, (f"solver artifact {fingerprint[:12]} ignored: "
                          f"{reason}; cold-starting")
        self.load_hits += 1
        return artifact, None

    def save(self, fingerprint: str, state: dict,
             memo: Sequence[Tuple[str, str, Optional[dict]]] = (),
             pairs: Optional[Dict[str, Optional[list]]] = None) -> str:
        """Persist a session's exported state (atomic rename)."""
        artifact = {
            "format": FORMAT_VERSION,
            "tool": code_digest(),
            "snapshot": {
                "num_vars": state["snapshot"]["num_vars"],
                "clauses": state["snapshot"]["clauses"],
                "true_lit": state["snapshot"]["true_lit"],
                "var_bits": state["snapshot"]["var_bits"],
                "bool_vars": state["snapshot"]["bool_vars"],
            },
            "learnts": state.get("learnts", []),
            "memo": [list(entry) for entry in memo],
            "pairs": dict(pairs or {}),
        }
        path = self._path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh)
        os.replace(tmp, path)
        self.saves += 1
        return path

    # ------------------------------------------------------------------
    # maintenance (``repro cache stats`` / ``prune``)
    # ------------------------------------------------------------------

    def _iter_entries(self):
        if not os.path.isdir(self.root):
            return
        for fanout in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, fanout)
            if len(fanout) != 2 or not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(subdir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                yield path, st.st_size, st.st_mtime

    def disk_stats(self) -> dict:
        entries = bytes_total = 0
        for _path, size, _mtime in self._iter_entries():
            entries += 1
            bytes_total += size
        return {"dir": self.root, "entries": entries,
                "bytes": bytes_total}

    def prune(self, max_age_seconds: Optional[float] = None,
              max_bytes: Optional[int] = None) -> dict:
        """Same eviction policy as the verdict cache: age first, then
        LRU-by-mtime down to the byte budget."""
        now = time.time()
        survivors = []
        removed = freed = 0
        for path, size, mtime in self._iter_entries():
            if max_age_seconds is not None \
                    and now - mtime > max_age_seconds:
                removed += 1
                freed += size
                _remove(path)
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            survivors.sort()
            total = sum(size for _mtime, size, _path in survivors)
            while survivors and total > max_bytes:
                _mtime, size, path = survivors.pop(0)
                removed += 1
                freed += size
                total -= size
                _remove(path)
        return {"removed": removed, "freed_bytes": freed,
                "kept": len(survivors), "dir": self.root}


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass
