"""Unit tests for cross-run solver artifacts in the one store.

Safety first: every way an artifact can be unusable — corrupted,
truncated, structurally malformed — must cold-start (the store's read
path returns ``(None, reason)``), never raise and never hand back a
partial artifact; one written by other analysis code is a plain miss.
"""
import json
import os

import pytest

import repro
from repro.smt import mk_add, mk_bv, mk_bv_var, mk_mul, mk_ult
from repro.smt.persist import (
    artifact_problem, canonical_term, make_artifact, preamble_fingerprint,
)
from repro.store import ResultCache, content_key


def _terms():
    x = mk_bv_var("x", 32)
    y = mk_bv_var("y", 32)
    return [mk_ult(x, mk_bv(64, 32)),
            mk_ult(y, mk_bv(64, 32)),
            mk_ult(mk_add(mk_mul(x, mk_bv(4, 32)), y), mk_bv(256, 32))]


def _state():
    return {
        "snapshot": {"num_vars": 5, "clauses": [[1, -2], [2, 3, -4]],
                     "true_lit": 5, "var_bits": {"x": [1, 2]},
                     "bool_vars": {"g": 3}},
        "learnts": [[1, 3], [-2, 4]],
    }


class TestCanonicalisation:
    def test_digest_is_stable_and_full_depth(self):
        a = _terms()
        b = _terms()  # interning makes these the same nodes
        assert [canonical_term(t) for t in a] == \
            [canonical_term(t) for t in b]
        assert len(canonical_term(a[0])) == 64

    def test_deep_difference_changes_digest(self):
        x = mk_bv_var("x", 32)
        t1 = mk_ult(mk_add(mk_mul(x, mk_bv(4, 32)), mk_bv(1, 32)),
                    mk_bv(256, 32))
        t2 = mk_ult(mk_add(mk_mul(x, mk_bv(4, 32)), mk_bv(2, 32)),
                    mk_bv(256, 32))
        assert canonical_term(t1) != canonical_term(t2)

    def test_fingerprint_order_insensitive(self):
        terms = _terms()
        assert preamble_fingerprint(terms) == \
            preamble_fingerprint(list(reversed(terms)))

    def test_fingerprint_content_sensitive(self):
        terms = _terms()
        assert preamble_fingerprint(terms) != \
            preamble_fingerprint(terms[:-1])


def _key(fingerprint):
    return content_key("solver_artifact", preamble=fingerprint)


def _save(store, fingerprint, memo=(), pairs=None):
    key = _key(fingerprint)
    assert store.put(key, make_artifact(_state(), memo, pairs))
    return key


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        store = ResultCache(str(tmp_path))
        memo = [("c" * 64, "sat", {"x": 3}), ("d" * 64, "unsat", None)]
        pairs = {"e" * 64: None, "f" * 64: [{"tid.x!1": 0}, False]}
        key = _save(store, preamble_fingerprint(_terms()), memo, pairs)
        artifact, reason = store.lookup(key, artifact_problem)
        assert reason is None
        assert artifact["snapshot"] == _state()["snapshot"]
        assert artifact["learnts"] == _state()["learnts"]
        assert artifact["memo"] == [list(m) for m in memo]
        assert artifact["pairs"] == pairs
        assert set(artifact) == {"snapshot", "learnts", "memo", "pairs"}

    def test_plain_miss(self, tmp_path):
        store = ResultCache(str(tmp_path))
        assert store.lookup(_key("0" * 64), artifact_problem) == \
            (None, None)

    def test_json_is_reread_equal(self, tmp_path):
        # the artifact survives a JSON round trip byte-for-byte at the
        # structural level (no tuples, no non-string keys sneaking in)
        store = ResultCache(str(tmp_path))
        key = _save(store, "ab" + "0" * 62, [("c" * 64, "unsat", None)])
        with open(store._path(key)) as fh:
            assert json.load(fh) == store.get(key, artifact_problem)


class TestUnusableArtifacts:
    def _saved(self, tmp_path):
        store = ResultCache(str(tmp_path))
        key = _save(store, "ab" + "1" * 62, [("c" * 64, "sat", {"x": 1})],
                    {"d" * 64: None})
        return store, key, store._path(key)

    def test_corrupted_json(self, tmp_path):
        store, key, path = self._saved(tmp_path)
        with open(path, "w") as fh:
            fh.write("{not json at all")
        artifact, reason = store.lookup(key, artifact_problem)
        assert artifact is None and "unreadable" in reason

    def test_truncated_file(self, tmp_path):
        store, key, path = self._saved(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        artifact, reason = store.lookup(key, artifact_problem)
        assert artifact is None and "unreadable" in reason

    def test_tool_version_skew(self, tmp_path, monkeypatch):
        # the key hashes the checker code: an artifact written by other
        # analysis code is never found, so it is a plain miss
        store, key, _path = self._saved(tmp_path)
        monkeypatch.setattr(repro, "_code_digest", "0" * 64)
        other = _key("ab" + "1" * 62)
        assert other != key
        assert store.lookup(other, artifact_problem) == (None, None)

    @pytest.mark.parametrize("mutate, reason", [
        (lambda a: a.pop("snapshot"), "missing snapshot"),
        (lambda a: a["snapshot"].pop("clauses"), "malformed snapshot"),
        (lambda a: a.update(learnts="zzz"), "malformed learnts"),
        (lambda a: a.update(memo={"not": "a list"}), "malformed memo"),
        (lambda a: a.update(memo=[["x", "maybe", None]]),
         "malformed memo entry"),
        (lambda a: a.update(pairs=["not a dict"]), "malformed pairs"),
        (lambda a: a.update(pairs={"d": [1, 2, 3]}),
         "malformed pair verdict"),
    ])
    def test_structural_damage(self, tmp_path, mutate, reason):
        store, key, path = self._saved(tmp_path)
        blob = json.load(open(path))
        mutate(blob)
        json.dump(blob, open(path, "w"))
        artifact, got = store.lookup(key, artifact_problem)
        assert artifact is None and got == reason


class TestMaintenance:
    """Artifacts are entries of the one store: its single walk counts
    and evicts them beside every other kind of entry."""

    def test_disk_stats_and_prune(self, tmp_path):
        store = ResultCache(str(tmp_path))
        for i in range(4):
            _save(store, f"{i:02d}" + "e" * 62)
        store.put(content_key("job", form="f"), {"status": "done"})
        stats = store.disk_stats()
        assert stats["entries"] == 5 and stats["bytes"] > 0
        outcome = store.prune(max_bytes=stats["bytes"] // 2)
        assert outcome["removed"] >= 1
        assert store.disk_stats()["bytes"] <= stats["bytes"] // 2

    def test_prune_by_age(self, tmp_path):
        store = ResultCache(str(tmp_path))
        old = store._path(_save(store, "aa" + "e" * 62))
        then = os.path.getmtime(old) - 3600
        os.utime(old, (then, then))
        _save(store, "bb" + "e" * 62)
        outcome = store.prune(max_age_seconds=60)
        assert outcome["removed"] == 1 and outcome["kept"] == 1
        assert not os.path.exists(old)
