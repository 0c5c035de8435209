"""Every content key is tied to the checker code
(:func:`repro.code_digest`), not to ``__version__``: an entry written
by other analysis code must miss."""
import repro
from repro import code_digest
from repro.kernels.streams import get_stream_case
from repro.service import JobSpec, cache_key, content_key, swarm_cache_key
from repro.streams import StreamChecker

SOURCE = """
__shared__ int v[64];
__global__ void race() {
  v[threadIdx.x] = v[(threadIdx.x + 1) % blockDim.x];
}
"""

def _keys():
    """Every code-keyed fingerprint, computed under the current digest."""
    spec = JobSpec(job_id="j", source=SOURCE)
    checker = StreamChecker(
        get_stream_case("pipeline_missing_sync").program)
    launches = checker.check().launches
    return {
        "cache_key": cache_key(spec),
        "swarm_cache_key": swarm_cache_key(spec, 4),
        "launch_fingerprint": launches[0].fingerprint,
        "pair_fingerprint": checker._pair_fingerprint(*launches),
    }


def test_digest_is_a_lazy_sha256_of_the_sources(monkeypatch):
    digest = code_digest()
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert code_digest() is digest          # computed once
    monkeypatch.setattr(repro, "_code_digest", None)
    assert code_digest() == digest          # deterministic recompute


def test_changed_code_changes_every_key(monkeypatch):
    before = _keys()
    monkeypatch.setattr(repro, "_code_digest", "0" * 64)
    after = _keys()
    assert all(before[name] != after[name] for name in before), \
        {name: before[name] == after[name] for name in before}


def test_equal_material_under_two_kinds_gives_two_keys():
    # job verdicts, swarm verdicts and stream launches/pairs share one
    # result cache: the kind tag keeps their keys apart
    material = {"form": "f" * 64, "config": {"engine": "sesa"}}
    job = content_key("job", **material)
    assert job == content_key("job", **dict(reversed(material.items())))
    assert job != content_key("stream_launch", **material)
