"""Unit tests for the cross-run solver artifact store.

Safety first: every way an artifact can be unusable — missing,
corrupted, truncated, version-skewed, structurally malformed — must
cold-start (load returns ``(None, warning)``), never raise and never
hand back a partial artifact.
"""
import json
import os

import pytest

from repro import code_digest
from repro.smt import mk_add, mk_bv, mk_bv_var, mk_mul, mk_ult
from repro.smt.persist import (
    FORMAT_VERSION, SolverArtifactStore, canonical_term,
    preamble_fingerprint,
)


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


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        store = SolverArtifactStore(str(tmp_path))
        fp = preamble_fingerprint(_terms())
        memo = [("c" * 64, "sat", {"x": 3}), ("d" * 64, "unsat", None)]
        pairs = {"e" * 64: None, "f" * 64: [{"tid.x!1": 0}, False]}
        store.save(fp, _state(), memo, pairs)
        artifact, warning = store.load(fp)
        assert warning is None
        assert artifact["snapshot"] == _state()["snapshot"]
        assert artifact["learnts"] == _state()["learnts"]
        assert artifact["memo"] == [list(m) for m in memo]
        assert artifact["pairs"] == pairs
        assert artifact["format"] == FORMAT_VERSION
        assert artifact["tool"] == code_digest()

    def test_plain_miss(self, tmp_path):
        store = SolverArtifactStore(str(tmp_path))
        assert store.load("0" * 64) == (None, None)

    def test_json_is_reread_equal(self, tmp_path):
        # the artifact survives a JSON round trip byte-for-byte at the
        # structural level (no tuples, no non-string keys sneaking in)
        store = SolverArtifactStore(str(tmp_path))
        fp = "ab" + "0" * 62
        path = store.save(fp, _state(), [("c" * 64, "unsat", None)], {})
        assert json.load(open(path)) == store.load(fp)[0]


class TestUnusableArtifacts:
    def _saved(self, tmp_path):
        store = SolverArtifactStore(str(tmp_path))
        fp = "ab" + "1" * 62
        path = store.save(fp, _state(), [("c" * 64, "sat", {"x": 1})],
                          {"d" * 64: None})
        return store, fp, path

    def test_corrupted_json(self, tmp_path):
        store, fp, path = self._saved(tmp_path)
        with open(path, "w") as fh:
            fh.write("{not json at all")
        artifact, warning = store.load(fp)
        assert artifact is None and "cold-starting" in warning

    def test_truncated_file(self, tmp_path):
        store, fp, path = self._saved(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        artifact, warning = store.load(fp)
        assert artifact is None and "cold-starting" in warning

    def test_format_version_skew(self, tmp_path):
        store, fp, path = self._saved(tmp_path)
        blob = json.load(open(path))
        blob["format"] = FORMAT_VERSION + 1
        json.dump(blob, open(path, "w"))
        artifact, warning = store.load(fp)
        assert artifact is None and "format version skew" in warning

    def test_tool_version_skew(self, tmp_path):
        store, fp, path = self._saved(tmp_path)
        blob = json.load(open(path))
        blob["tool"] = "0.0.0-other"
        json.dump(blob, open(path, "w"))
        artifact, warning = store.load(fp)
        assert artifact is None and "tool version skew" in warning

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
        store, fp, path = self._saved(tmp_path)
        blob = json.load(open(path))
        mutate(blob)
        json.dump(blob, open(path, "w"))
        artifact, warning = store.load(fp)
        assert artifact is None and reason in warning


class TestMaintenance:
    def test_disk_stats_and_prune(self, tmp_path):
        store = SolverArtifactStore(str(tmp_path))
        for i in range(4):
            store.save(f"{i:02d}" + "e" * 62, _state())
        stats = store.disk_stats()
        assert stats["entries"] == 4 and stats["bytes"] > 0
        outcome = store.prune(max_bytes=stats["bytes"] // 2)
        assert outcome["removed"] >= 1
        assert store.disk_stats()["bytes"] <= stats["bytes"] // 2

    def test_prune_by_age(self, tmp_path):
        store = SolverArtifactStore(str(tmp_path))
        path = store.save("aa" + "e" * 62, _state())
        old = os.path.getmtime(path) - 3600
        os.utime(path, (old, old))
        store.save("bb" + "e" * 62, _state())
        outcome = store.prune(max_age_seconds=60)
        assert outcome["removed"] == 1 and outcome["kept"] == 1

    def test_empty_store(self, tmp_path):
        store = SolverArtifactStore(str(tmp_path / "nothing"))
        assert store.disk_stats()["entries"] == 0
        assert store.prune(max_age_seconds=0)["removed"] == 0
