"""Cross-run warm-start artifacts for the race checker's solvers.

A race-check :class:`~repro.smt.solver.Solver` and its incremental SAT
back end (:class:`~repro.smt.session.SolverSession`) own artifacts that
are expensive to rebuild and pure functions of the preamble:

* the blasted preamble CNF snapshot (clauses + variable maps),
* the retained preamble-only learned clauses,
* the query memo (canonical goal -> verdict, with SAT witness values),
* the pair memo (canonical access-pair digest -> race verdict), which
  lets a warm re-check skip even the pre-solver pruning pipeline for
  pairs whose inputs are unchanged.

All of them survive a process boundary as one entry of the one
content-keyed store (:class:`repro.store.ResultCache`), keyed by
``content_key("solver_artifact", preamble=preamble_fingerprint(...))``.
A later run with the same preamble adopts the artifact instead of
re-lowering, and replays memoized verdicts without touching the SAT
core. This module supplies the key material (:func:`canonical_term`,
:func:`preamble_fingerprint`), the entry (:func:`make_artifact`) and
its reader's shape check (:func:`artifact_problem`).

Safety model: a warm start must NEVER change a verdict.

* The fingerprint is a full-depth canonical serialisation — any
  preamble difference, however deep, misses the cache.
* The key hashes :func:`repro.code_digest`, so an artifact written by
  other analysis code (another encoder, another artifact layout) is a
  plain miss.
* Corrupted or truncated artifacts (torn writes, disk faults) fail
  JSON/structural validation and cold-start with a warning.
* Replayed SAT verdicts carry their witness values, which the caller
  re-validates by evaluation before trusting them (see
  ``RaceChecker._solve``); an UNSAT replay is backed by the key
  match — the artifact's memo was recorded under the identical
  preamble by the identical encoder.
"""
from __future__ import annotations

import hashlib
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .terms import Term

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


def make_artifact(state: dict,
                  memo: Sequence[Tuple[str, str, Optional[dict]]] = (),
                  pairs: Optional[Dict[str, Optional[list]]] = None
                  ) -> dict:
    """The stored entry for a session's exported *state* plus its query
    memo and pair verdicts."""
    snap = state["snapshot"]
    return {
        "snapshot": {name: snap[name] for name in (
            "num_vars", "clauses", "true_lit", "var_bits", "bool_vars")},
        "learnts": state.get("learnts", []),
        "memo": [list(entry) for entry in memo],
        "pairs": dict(pairs or {}),
    }


def artifact_problem(artifact: dict) -> Optional[str]:
    """The reader's shape check: ``None`` if *artifact* is usable,
    else the reason it is not."""
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
