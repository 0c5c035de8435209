"""The four workloads of the end-to-end benchmark.

Each workload turns a seed into a list of requests, runs them through
the package's public API, and judges every verdict against a known
answer. A request is one kernel check (``corpus``, ``regular``), one
stream program (``streams``) or one 55-job ``Scheduler.run``
(``replay``). Why each workload exists is recorded in README.md.

A workload object is built inside one pass interpreter; building it is
part of the pass's set-up time, running its requests is not.
"""
from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.core import SESA
from repro.kernels import ALL_KERNELS, Kernel
from repro.kernels.lonestar import attach_concrete_graph
from repro.kernels.streams import STREAM_CASES, StreamCase
from repro.service import (
    JobStatus, ResultCache, Scheduler, builtin_jobs, stream_jobs,
)
from repro.service.corpus import SUITES
from repro.streams import check_stream

#: the regular (non-Lonestar, non-Parboil) suites
REGULAR_SUITES = ("paper", "sdk", "reductions", "divergent")
#: repetitions of each input in one pass: (full, --quick)
REPETITIONS = {"corpus": (1, 1), "regular": (8, 1), "streams": (150, 5),
               "replay": (60, 3)}
#: a check slower than this counts as a failure (a timeout)
CHECK_BUDGET_S = 60.0
#: the replay scheduler's worker count (sized for a 2-core machine)
REPLAY_WORKERS = 2

Judgement = Tuple[str, int, List[str]]   # (signature, verdicts, failures)


def kind_closure(kinds) -> set:
    """Accept standard aliases: RW covers WR; benign annotations match
    their base kind. (The rule the kernel-suite tests apply.)"""
    out = set()
    for k in kinds:
        out.add(k)
        out.add(k.replace(" (Benign)", ""))
        if k == "RW":
            out.add("WR")
    return out


def issue_failure(found: set, expected: List[str]) -> Optional[str]:
    """Why a kernel verdict with issue tags *found* is wrong, or None."""
    if expected:
        if not found & kind_closure(expected):
            return f"expected one of {sorted(expected)}, found " \
                   f"{sorted(found)}"
    elif any("Benign" not in f for f in found):
        return f"expected clean, found {sorted(found)}"
    return None


def stream_failure(racy: bool, expected_racy: bool,
                   races: List[dict]) -> Optional[str]:
    """Why a stream verdict is wrong, or None. *races* are the
    inter-launch race payloads (``InterLaunchRace.to_dict()``)."""
    if racy != expected_racy:
        return f"expected racy={expected_racy}, got racy={racy}"
    if expected_racy and not races:
        return "racy without an inter-launch race"
    for race in races:
        w = race.get("witness") or {}
        if race["launch1"] == race["launch2"] or not all(
                w.get(k) is not None
                for k in ("thread1", "block1", "thread2", "block2")):
            return f"race without a two-sided launch witness: {race}"
    return None


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


class Counters(dict):
    """Sums of the checker's own counters over one pass."""

    def add(self, key: str, value) -> None:
        self[key] = self.get(key, 0) + value

    def add_check_stats(self, stats: Optional[dict]) -> None:
        if not stats:
            return
        self.add("kernel_verdicts", 1)
        self.add("static_resolved", stats.get("static_resolved", 0))
        for key in ("pairs_considered", "queries", "bucketed_out",
                    "by_affine", "pair_memo_hits"):
            self.add(key, stats.get(key, 0))
        solver = stats.get("solver") or {}
        for key in ("sat_instances", "sat_conflicts", "template_hits"):
            self.add(key, solver.get(key, 0))


class Workload:
    """Base of the four workloads. A subclass sets :attr:`name` and
    provides ``requests()``, yielding ``(input key, thunk)`` pairs whose
    thunk runs one request, and ``judge(key, result)``, returning a
    :data:`Judgement` of the request's result."""

    name = ""

    def __init__(self, seed: int, quick: bool) -> None:
        self.rng = random.Random(seed)
        self.reps = REPETITIONS[self.name][1 if quick else 0]
        self.counters = Counters()

    def _shuffled(self, items: list) -> list:
        order = [item for item in items for _ in range(self.reps)]
        self.rng.shuffle(order)
        return order


# ----------------------------------------------------------------------
# corpus / regular: one SESA check per request
# ----------------------------------------------------------------------

def _check_kernel(kernel: Kernel, config):
    return SESA.from_source(kernel.source, kernel.kernel_name).check(config)


class KernelWorkload(Workload):

    def __init__(self, seed: int, quick: bool,
                 kernels: List[Kernel]) -> None:
        super().__init__(seed, quick)
        self.order = self._shuffled(kernels)

    def requests(self):
        for kernel in self.order:
            # a fresh config per check: check() fills in symbolic inputs
            config = kernel.launch_config()
            if kernel.table.startswith("Table III"):
                attach_concrete_graph(config)
            yield kernel.name, functools.partial(_check_kernel, kernel,
                                                 config)

    def judge(self, key: str, report) -> Judgement:
        self.counters.add_check_stats(asdict(report.check_stats))
        found = set(report.race_kinds()) | ({"OOB"} if report.oobs
                                             else set())
        problem = "timed out" if report.timed_out else \
            issue_failure(found, ALL_KERNELS[key].expected_issues)
        failures = [f"{key}: {problem}"] if problem else []
        return digest([sorted(found), report.resolvable]), 1, failures


class Corpus(KernelWorkload):
    name = "corpus"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick, list(ALL_KERNELS.values()))


class Regular(KernelWorkload):
    name = "regular"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick, [k for suite in REGULAR_SUITES
                                       for k in SUITES[suite]])


# ----------------------------------------------------------------------
# streams: one uncached stream-program check per request
# ----------------------------------------------------------------------

class Streams(Workload):
    name = "streams"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.cases: Dict[str, StreamCase] = {c.name: c for c in STREAM_CASES}
        self.order = self._shuffled(list(STREAM_CASES))

    def requests(self):
        for case in self.order:
            yield case.name, functools.partial(check_stream, case.program)

    def judge(self, key: str, report) -> Judgement:
        stats = report.stats
        self.counters.add("stream_pairs_considered", stats.pairs_considered)
        self.counters.add("stream_pruned_pairs", stats.pruned_pairs)
        self.counters.add("stream_queries", stats.queries)
        for launch in report.launches:
            self.counters.add_check_stats(launch.verdict.get("check_stats"))
        races = [r.to_dict() for r in report.inter_launch_races]
        problem = "timed out" if report.timed_out else stream_failure(
            report.has_issues, self.cases[key].expected_racy, races)
        failures = [f"{key}: {problem}"] if problem else []
        signature = digest([report.has_issues, sorted(
            (r["kind"], r["buffer"], r["launch1"], r["launch2"])
            for r in races)])
        return signature, 1, failures


# ----------------------------------------------------------------------
# replay: the whole built-in job list served from a filled cache
# ----------------------------------------------------------------------

def replay_specs():
    return builtin_jobs() + stream_jobs()


def cold_job_failure(spec, job) -> Optional[str]:
    """Why a cold-fill job's verdict is wrong, or None."""
    if job.status != JobStatus.DONE:
        return f"status {job.status}: {job.error}"
    if job.verdict.get("timed_out"):
        return "timed out"
    if spec.kind == "stream":
        return stream_failure(job.has_issues, spec.meta["expected_racy"],
                              job.verdict["stream"]["inter_launch_races"])
    return issue_failure(set(job.issue_tags()), spec.meta["expected_issues"])


def fill_cache(cache_dir: str) -> Tuple[Dict[str, str], List[str]]:
    """Check every replay spec cold into *cache_dir*; returns the
    per-job verdict digests and the failures."""
    specs = replay_specs()
    batch = Scheduler(max_workers=REPLAY_WORKERS,
                      timeout_seconds=CHECK_BUDGET_S,
                      cache=ResultCache(cache_dir)).run(specs)
    digests, failures = {}, []
    for spec, job in zip(specs, batch.jobs):
        problem = cold_job_failure(spec, job)
        if problem:
            failures.append(f"{spec.job_id}: {problem}")
        digests[spec.job_id] = digest(job.verdict)
    return digests, failures


class Replay(Workload):
    name = "replay"

    def __init__(self, seed: int, quick: bool, cache_dir: str,
                 cold: Dict[str, str]) -> None:
        super().__init__(seed, quick)
        self.cache = ResultCache(cache_dir)
        self.cold = cold
        self.specs = replay_specs()

    def requests(self):
        # every replay submits the specs in its own order: each is a
        # distinct input
        for i in range(self.reps):
            specs = list(self.specs)
            self.rng.shuffle(specs)
            yield f"replay-{i}", functools.partial(self._replay, specs)

    def _replay(self, specs):
        return Scheduler(max_workers=REPLAY_WORKERS,
                         timeout_seconds=CHECK_BUDGET_S,
                         cache=self.cache).run(specs)

    def judge(self, key: str, batch) -> Judgement:
        self.counters.add("cache_hits", batch.cache_hits)
        self.counters.add("cache_misses", batch.cache_misses)
        digests = {job.job_id: digest(job.verdict) for job in batch.jobs}
        failures = []
        for job in batch.jobs:
            if job.status != JobStatus.CACHED:
                failures.append(f"{job.job_id}: not cached ({job.status})")
            elif digests[job.job_id] != self.cold.get(job.job_id):
                failures.append(f"{job.job_id}: verdict differs from the "
                                f"cold fill")
        return digest(sorted(digests.items())), len(batch.jobs), failures


WORKLOADS = {"corpus": Corpus, "regular": Regular, "streams": Streams,
             "replay": Replay}
