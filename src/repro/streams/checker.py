"""Inter-launch race checking over a :class:`StreamProgram`.

The single-launch engine already answers "can two threads of *this*
launch collide?" — this module lifts the same machinery one level up,
to "can two threads of two *different, HB-unordered* launches collide
on a shared buffer?". The paper's parametric trick carries over intact:
two symbolic threads stand in for the full cross product of the two
launches' thread spaces, each drawn from its *own* launch configuration
(grids and blocks may differ per launch).

The program's source is compiled once per process
(:func:`~repro.service.cache.shared_module`), and every launch reads
that one record. Per launch, the existing :meth:`SESA.check` pipeline
runs unchanged,
under the stream's one base :class:`~repro.sym.LaunchConfig` with the
launch's own geometry, scalars and buffer sizes — static tier, pruning,
warp policy and budgets all apply — producing the per-launch verdict
*and* the global-memory access record the cross-launch pass consumes.
Each launch's accesses are then keyed by the *program buffer* its
pointer parameters are bound to, and every HB-unordered launch pair is
checked buffer by buffer through the pair steps the intra-launch
checker uses (:mod:`repro.sym.pairs`), with one
:class:`~repro.sym.pairs.PairSide` per launch:

* each side is instantiated with its launch's suffix (``tid.x`` →
  ``tid.x!L3``) and bounded by its own launch extents — no
  different-thread constraint, because threads of distinct launches
  are always distinct actors (even equal coordinates race);
* interval footprints and affine stride separation prune provably
  disjoint pairs before any solving;
* surviving pairs go through the shared memo → session solve (the
  preamble is just the two bound sets) and the shared benign
  classification;
* atomic-vs-atomic pairs are skipped, and one race is reported per
  ``(buffer, line, line, kind)``.

Caching is per *launch*, not per program: a launch's fingerprint hashes
only its own kernel's IR and source locations (plus module globals) and
its launch config's fingerprint — so re-checking a
program after editing one kernel replays from the
:class:`~repro.service.cache.ResultCache` every launch whose kernel
neither changed nor moved, and re-solves only the edited one.
Fully-checked launch *pairs* are cached the same way. A cache entry of
the wrong shape is a miss.

Known approximation: buffer *contents* are not tracked across launches.
A read's symbolic value is an uninterpreted function of its parameter
name, independent of what an earlier launch wrote — over-approximating
the set of reachable values, the sound direction for race existence
(address arithmetic rarely depends on ordered producer values; when it
does, a witness may name infeasible input contents).
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from .. import ir
from ..core.sesa import SESA
from ..service.cache import (
    CompiledModule, content_key, get_result, put_result, shared_module,
)
from ..service.jobs import JobResult, JobStatus
from ..smt import SolverStats
from ..sym import LaunchConfig
from ..sym.access import Access, AccessKind
from ..sym.pairs import (
    MAX_REPORTS, PairDischarge, PairSide, ReportKeys, race_kind,
    witness_inputs,
)
from .hb import HappensBefore
from .program import Launch, StreamProgram


#: the settings each launch takes from the stream program (see
#: :meth:`StreamChecker._config_for`)
PER_LAUNCH_FIELDS = ("grid_dim", "block_dim", "symbolic_inputs",
                     "scalar_values", "array_sizes")


def check_base_config(config: LaunchConfig) -> None:
    """Reject a stream's base config that sets a per-launch setting or
    a shard (:class:`ValueError`): it would be ignored, yet hashed into
    the job's cache key."""
    default = LaunchConfig()
    for name in PER_LAUNCH_FIELDS:
        if getattr(config, name) != getattr(default, name):
            raise ValueError(
                f"{name} is set per launch by the stream program")
    if config.shard is not None:
        raise ValueError("a stream program cannot be sharded")


def launch_fingerprint(module: CompiledModule, launch: Launch,
                       config: LaunchConfig) -> str:
    """Cache key for one launch's verdict.

    Hashes the launch's *own* kernel slice of the compiled *module*
    (its IR, the module globals — any kernel may touch them — and its
    instruction locations: the verdict names source lines),
    :func:`repro.code_digest`, and the launch's config fingerprint
    (:meth:`LaunchConfig.fingerprint`: its geometry and value maps plus
    every stream-wide setting). The one field dropped is the wall-clock
    budget: a non-timed-out budgeted verdict equals the unbudgeted one,
    and timed-out verdicts are never cached.
    """
    fingerprint = config.fingerprint()
    del fingerprint["time_budget_seconds"]
    return content_key(
        "stream_launch",
        ir=module.kernel_slice(launch.kernel),
        kernel=launch.kernel,
        config=fingerprint)


@dataclass
class InterLaunchRace:
    """A cross-launch race on a shared buffer, with a launch-pair
    witness. Plain JSON-able data throughout — pair verdicts round-trip
    through the result cache."""

    kind: str                    # "WW", "RW", "Atomic/W", "Atomic/R"
    buffer: str                  # the shared program buffer
    launch1: int                 # launch-sequence indices
    launch2: int
    kernel1: str
    kernel2: str
    param1: str                  # pointer parameter bound on each side
    param2: str
    loc1: Optional[int] = None   # source lines of the two accesses
    loc2: Optional[int] = None
    benign: bool = False
    #: {"thread1": [x,y,z], "block1": [...], "thread2": ..., "block2":
    #: ..., "inputs": {...}} — coordinates are per-launch
    witness: Dict[str, object] = field(default_factory=dict)

    def witness_str(self) -> str:
        w = self.witness
        out = (f"launch {self.launch1} block {tuple(w.get('block1', ()))} "
               f"thread {tuple(w.get('thread1', ()))} vs "
               f"launch {self.launch2} block {tuple(w.get('block2', ()))} "
               f"thread {tuple(w.get('thread2', ()))}")
        inputs = w.get("inputs") or {}
        if inputs:
            ins = ", ".join(f"{k}={v}" for k, v in sorted(inputs.items()))
            out += f" with {ins}"
        return out

    def describe(self) -> str:
        flavour = " (benign)" if self.benign else ""
        return (f"{self.kind} inter-launch race{flavour} on "
                f"{self.buffer}: launch {self.launch1} "
                f"({self.kernel1}:{self.param1}, line {self.loc1}) vs "
                f"launch {self.launch2} "
                f"({self.kernel2}:{self.param2}, line {self.loc2}) — "
                f"{self.witness_str()}")

    def report_key(self) -> tuple:
        """The race's :class:`~repro.sym.pairs.ReportKeys` key: kind,
        buffer and each side's launch and source line. (A stream report
        carries no resolvability flag.)"""
        return (self.kind, self.buffer, self.launch1, self.loc1,
                self.launch2, self.loc2)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "InterLaunchRace":
        return cls(**{k: data[k] for k in
                      ("kind", "buffer", "launch1", "launch2", "kernel1",
                       "kernel2", "param1", "param2", "loc1", "loc2",
                       "benign", "witness") if k in data})


#: fields an :class:`InterLaunchRace` cannot be rebuilt without
_RACE_FIELDS = frozenset(("kind", "buffer", "launch1", "launch2",
                          "kernel1", "kernel2", "param1", "param2"))


def _pair_entry_problem(payload: dict) -> Optional[str]:
    """Shape check for a cached launch-pair entry: ``None`` for
    ``{"races": [...]}`` with every race rebuildable by
    :meth:`InterLaunchRace.from_dict`."""
    races = payload.get("races")
    if isinstance(races, list) and all(
            isinstance(race, dict) and _RACE_FIELDS <= race.keys()
            for race in races):
        return None
    return "not a launch-pair entry"


@dataclass
class StreamStats:
    """Counters for one stream check (the stream-level analogue of
    :class:`~repro.sym.races.CheckStats`)."""

    launches: int = 0
    launch_cache_hits: int = 0     # launches replayed from the cache
    unordered_pairs: int = 0       # HB-unordered launch pairs
    pairs_considered: int = 0      # cross-launch access pairs seen
    pruned_pairs: int = 0          # discharged by footprint/stride
    pair_cache_hits: int = 0       # launch pairs replayed from the cache
    queries: int = 0               # SAT queries issued
    by_memo: int = 0               # queries answered from the memo
    sessions_created: int = 0      # one per solved launch pair
    preamble_reuse: int = 0        # queries served by an existing session
    inter_launch_races: int = 0
    execute_seconds: float = 0.0   # per-launch pipeline wall clock
    solve_seconds: float = 0.0     # inter-launch solving wall clock
    elapsed_seconds: float = 0.0
    #: per-query solver dispatch counters, merged across all queries
    solver: SolverStats = field(default_factory=SolverStats)


@dataclass
class LaunchOutcome:
    """One launch's slot in the merged report."""

    index: int
    label: str
    kernel: str
    stream: int
    grid_dim: Tuple[int, int, int]
    block_dim: Tuple[int, int, int]
    cached: bool
    fingerprint: str
    #: the launch's :meth:`AnalysisReport.to_dict` payload
    verdict: dict
    elapsed_seconds: float = 0.0

    @property
    def racy(self) -> bool:
        v = self.verdict
        return bool(any(not r.get("benign") for r in v.get("races", ()))
                    or v.get("oobs") or v.get("assertion_failures"))

    def to_dict(self) -> dict:
        return {"index": self.index, "label": self.label,
                "kernel": self.kernel, "stream": self.stream,
                "grid_dim": list(self.grid_dim),
                "block_dim": list(self.block_dim),
                "cached": self.cached, "fingerprint": self.fingerprint,
                "racy": self.racy,
                "elapsed_seconds": self.elapsed_seconds}


class StreamReport:
    """Merged per-launch + inter-launch verdict for one program."""

    def __init__(self, program: StreamProgram,
                 launches: List[LaunchOutcome],
                 inter_launch_races: List[InterLaunchRace],
                 hb: HappensBefore, stats: StreamStats,
                 warnings: Optional[List[str]] = None,
                 timed_out: bool = False,
                 elapsed_seconds: float = 0.0) -> None:
        self.program = program
        self.launches = launches
        self.inter_launch_races = inter_launch_races
        self.hb = hb
        self.stats = stats
        self.warnings = list(warnings or ())
        self.timed_out = timed_out
        self.elapsed_seconds = elapsed_seconds

    # ------------------------------------------------------------------

    @property
    def has_issues(self) -> bool:
        return (any(not r.benign for r in self.inter_launch_races)
                or any(lo.racy for lo in self.launches))

    def to_dict(self) -> dict:
        """Merged verdict, shaped like :meth:`AnalysisReport.to_dict`
        at the top level (races/oobs/assertion_failures/timed_out) so
        every existing consumer — ``JobResult.has_issues``, the batch
        report, the CLI ``--json`` contract — works unchanged, plus a
        ``stream`` sub-document with the launch-level detail."""
        races: List[dict] = []
        oobs: List[dict] = []
        assertion_failures: List[dict] = []
        for lo in self.launches:
            tag = {"launch": lo.index, "kernel": lo.kernel,
                   "inter_launch": False}
            races.extend(dict(r, **tag)
                         for r in lo.verdict.get("races", ()))
            oobs.extend(dict(o, **tag)
                        for o in lo.verdict.get("oobs", ()))
            assertion_failures.extend(
                dict(a, **tag)
                for a in lo.verdict.get("assertion_failures", ()))
        for r in self.inter_launch_races:
            races.append({
                "kind": r.kind, "object": r.buffer, "benign": r.benign,
                "inter_launch": True,
                "launches": [r.launch1, r.launch2],
                "kernels": [r.kernel1, r.kernel2],
                "params": [r.param1, r.param2],
                "lines": [r.loc1, r.loc2],
                "witness": r.witness_str(),
                "witness_data": dict(r.witness, launch1=r.launch1,
                                     launch2=r.launch2),
            })
        timed_out = self.timed_out or any(
            lo.verdict.get("timed_out") for lo in self.launches)
        return {
            "kernel": self.program.name,
            "engine": "stream",
            "races": races,
            "oobs": oobs,
            "assertion_failures": assertion_failures,
            "timed_out": timed_out,
            "warnings": list(self.warnings),
            "check_stats": asdict(self.stats),
            "elapsed_seconds": self.elapsed_seconds,
            "stream": {
                "program": self.program.to_dict(include_source=False),
                "launches": [lo.to_dict() for lo in self.launches],
                "hb": self.hb.to_dict(),
                "inter_launch_races": [r.to_dict()
                                       for r in self.inter_launch_races],
            },
        }

    def summary(self) -> str:
        lines = [f"=== stream program {self.program.name!r}: "
                 f"{len(self.launches)} launches, "
                 f"{self.stats.unordered_pairs} unordered pairs ==="]
        for lo in self.launches:
            state = "RACY" if lo.racy else "safe"
            cached = " [cached]" if lo.cached else ""
            lines.append(
                f"  [{lo.index}] {lo.label} <<<{lo.grid_dim}, "
                f"{lo.block_dim}>>> stream {lo.stream}: {state}{cached}")
        for race in self.inter_launch_races:
            lines.append(f"  INTER-LAUNCH {race.describe()}")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        n_inter = sum(1 for r in self.inter_launch_races if not r.benign)
        n_launch = sum(1 for lo in self.launches if lo.racy)
        if self.timed_out:
            lines.append("verdict: UNKNOWN (timed out)")
        elif self.has_issues:
            lines.append(f"verdict: RACY ({n_inter} inter-launch, "
                         f"{n_launch} racy launches)")
        else:
            lines.append("verdict: SAFE")
        return "\n".join(lines)


class _LaunchSide(PairSide):
    """One launch's side of its cross-launch pairs: a :class:`PairSide`
    with suffix ``!L<i>``, bounded by this launch's own extents, plus
    the launch's global accesses keyed by the program buffer its
    pointer parameters are bound to."""

    def __init__(self, index: int, launch: Launch, result) -> None:
        super().__init__(result, f"!L{index}")
        self.index = index
        self.launch = launch
        # deduped: summaries repeat across intervals
        self.by_buffer: Dict[str, List[Access]] = {}
        seen: Set[int] = set()
        for access in result.all_accesses():
            obj = access.obj
            if obj.space != ir.MemSpace.GLOBAL or id(access) in seen:
                continue
            buf = launch.args.get(obj.name)
            if buf is None:
                continue
            seen.add(id(access))
            self.by_buffer.setdefault(buf, []).append(access)


class StreamChecker(PairDischarge):
    """Checks one :class:`StreamProgram` end to end.

    Per-launch verdicts come from :meth:`SESA.check` (cache-replayed
    when a :class:`~repro.service.cache.ResultCache` is supplied);
    inter-launch pairs go through the shared pair steps of
    :class:`~repro.sym.pairs.PairDischarge`, one side per launch.
    :meth:`check` returns the merged :class:`StreamReport`.
    """

    def __init__(self, program: StreamProgram,
                 cache=None, telemetry=None,
                 config: Optional[LaunchConfig] = None,
                 max_reports: int = MAX_REPORTS) -> None:
        #: the stream-wide settings every launch is checked under; each
        #: launch takes its geometry, scalars and array sizes from the
        #: program and infers its own symbolic inputs, and
        #: ``time_budget_seconds`` bounds the whole program
        self.config = config or LaunchConfig()
        check_base_config(self.config)
        super().__init__(self.config.conflict_budget)
        self.program = program
        self.cache = cache
        if telemetry is None:
            from ..service.telemetry import Telemetry
            telemetry = Telemetry()
        self.telemetry = telemetry
        self.max_reports = max_reports
        program.validate()
        #: the program's shared, read-only compile
        self.module = shared_module(program.source)
        self._keys = ReportKeys()
        self.stats = StreamStats()
        self.warnings: List[str] = []

    # ------------------------------------------------------------------
    # per-launch pipeline
    # ------------------------------------------------------------------

    def _config_for(self, launch: Launch) -> LaunchConfig:
        budget = None
        if self._deadline is not None:
            # only under a stream-level budget: an unconditional
            # per-launch budget would force the static tier to bail
            budget = max(0.001, self._deadline - time.monotonic())
        return replace(
            self.config, grid_dim=launch.grid_dim,
            block_dim=launch.block_dim, symbolic_inputs=None,
            scalar_values=dict(launch.scalar_values),
            array_sizes={param: self.program.buffers[buf]
                         for param, buf in launch.args.items()},
            time_budget_seconds=budget)

    def _run_launch(self, index: int, launch: Launch,
                    need_accesses: bool
                    ) -> Tuple[LaunchOutcome, Optional[_LaunchSide]]:
        start = time.perf_counter()
        sesa = SESA.from_compiled(self.module, launch.kernel)
        config = self._config_for(launch)
        fingerprint = launch_fingerprint(self.module, launch, config)
        hit = get_result(self.cache, fingerprint, launch.name) \
            if self.cache is not None else None
        side = None
        if hit is not None:
            # cache hit: the verdict replays for free; the access
            # record (needed only for unordered pairs) is re-derived by
            # a solver-less executor run on the same deterministic path
            self.stats.launch_cache_hits += 1
            verdict = hit.verdict
            if need_accesses:
                side = _LaunchSide(index, launch, sesa.execute(config))
            cached = True
        else:
            report = sesa.check(config, max_reports=self.max_reports)
            verdict = report.to_dict()
            if self.cache is not None:
                # a timed-out (partial) verdict is not stored
                put_result(self.cache, fingerprint, JobResult(
                    job_id=launch.name, status=JobStatus.DONE,
                    verdict=verdict))
            if need_accesses and report.execution is not None:
                side = _LaunchSide(index, launch, report.execution)
            cached = False
        elapsed = time.perf_counter() - start
        self.stats.execute_seconds += elapsed
        outcome = LaunchOutcome(
            index=index, label=launch.name, kernel=launch.kernel,
            stream=launch.stream, grid_dim=launch.grid_dim,
            block_dim=launch.block_dim, cached=cached,
            fingerprint=fingerprint, verdict=verdict,
            elapsed_seconds=elapsed)
        self.telemetry.emit(
            "launch_finished", program=self.program.name, index=index,
            kernel=launch.kernel, stream=launch.stream, cached=cached,
            racy=outcome.racy, elapsed_seconds=round(elapsed, 6))
        return outcome, side

    # ------------------------------------------------------------------
    # inter-launch checking
    # ------------------------------------------------------------------

    def _pair_fingerprint(self, o1: LaunchOutcome, o2: LaunchOutcome
                          ) -> str:
        launches = self.program.launches()
        return content_key(
            "stream_interlaunch",
            fp1=o1.fingerprint, fp2=o2.fingerprint,
            args1=sorted(launches[o1.index].args.items()),
            args2=sorted(launches[o2.index].args.items()))

    def _check_launch_pair(self, s1: _LaunchSide, s2: _LaunchSide,
                           races: List[InterLaunchRace]) -> List[dict]:
        """All inter-launch races between two HB-unordered launches;
        returns the pair's cacheable race payloads (appending live
        reports to *races*)."""
        preamble = s1.bounds + s2.bounds
        found: List[dict] = []
        for buf in sorted(set(s1.by_buffer) & set(s2.by_buffer)):
            for a1 in s1.by_buffer[buf]:
                for a2 in s2.by_buffer[buf]:
                    if len(self._keys) >= self.max_reports \
                            or self._out_of_time():
                        return found
                    if not (a1.kind.is_write() or a2.kind.is_write()):
                        continue
                    if a1.kind == AccessKind.ATOMIC \
                            and a2.kind == AccessKind.ATOMIC:
                        # atomic vs atomic on the same object never
                        # races, across launches exactly as within one
                        continue
                    self.stats.pairs_considered += 1
                    race = InterLaunchRace(
                        kind=race_kind(a1, a2), buffer=buf,
                        launch1=s1.index, launch2=s2.index,
                        kernel1=s1.launch.kernel,
                        kernel2=s2.launch.kernel,
                        param1=a1.obj.name, param2=a2.obj.name,
                        loc1=int(a1.loc) if a1.loc is not None else None,
                        loc2=int(a2.loc) if a2.loc is not None else None)
                    # loop iterations of one statement are one race
                    key = race.report_key()
                    state = self._keys.state(key)
                    if state:
                        continue
                    if self.config.pair_pruning \
                            and self._provably_disjoint(s1, a1, s2, a2):
                        self.stats.pruned_pairs += 1
                        continue
                    goal = self._goal(s1, a1, s2, a2)
                    if state is not None and self._no_harmful_copy(
                            s1, a1, s2, a2, goal, preamble):
                        continue
                    model = self._solve(goal, preamble)
                    if model is None:
                        continue
                    race.benign = self._classify_benign(
                        s1, a1, s2, a2, goal, preamble)
                    if not self._keys.admit(key, race.benign):
                        continue
                    race.witness = {
                        "thread1": list(s1.coords(model, "tid")),
                        "block1": list(s1.coords(model, "bid")),
                        "thread2": list(s2.coords(model, "tid")),
                        "block2": list(s2.coords(model, "bid")),
                        "inputs": witness_inputs(model)}
                    races.append(race)
                    found.append(race.to_dict())
                    self.stats.inter_launch_races += 1
        return found

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def check(self) -> StreamReport:
        start = time.perf_counter()
        if self.config.time_budget_seconds is not None:
            self._deadline = time.monotonic() + \
                self.config.time_budget_seconds
        launches = self.program.launches()
        hb = HappensBefore(self.program)
        unordered = hb.unordered_pairs()
        self.stats.launches = len(launches)
        self.stats.unordered_pairs = len(unordered)
        self.telemetry.emit(
            "stream_planned", program=self.program.name,
            launches=len(launches), unordered_pairs=len(unordered),
            kernels=sorted({l.kernel for l in launches}))
        needed = {i for pair in unordered for i in pair}
        outcomes: List[LaunchOutcome] = []
        sides: Dict[int, _LaunchSide] = {}
        for index, launch in enumerate(launches):
            outcome, side = self._run_launch(index, launch,
                                             need_accesses=index in needed)
            outcomes.append(outcome)
            if side is not None:
                sides[index] = side

        races: List[InterLaunchRace] = []
        t0 = time.perf_counter()
        for i, j in unordered:
            if len(self._keys) >= self.max_reports or self._out_of_time():
                break
            s1, s2 = sides.get(i), sides.get(j)
            if s1 is None or s2 is None:
                self.warnings.append(
                    f"launch pair ({i}, {j}) not checked: missing "
                    f"execution record")
                self.timed_out = True
                continue
            pair_fp = self._pair_fingerprint(outcomes[i], outcomes[j])
            payload = self.cache.get(pair_fp, _pair_entry_problem) \
                if self.cache is not None else None
            if payload is not None:
                self.stats.pair_cache_hits += 1
                for data in payload["races"]:
                    if len(self._keys) >= self.max_reports:
                        break
                    # the entry is keyed on launch content, not position:
                    # another launch pair with the same content wrote it
                    race = InterLaunchRace.from_dict(
                        dict(data, launch1=i, launch2=j))
                    if self._keys.admit(race.report_key(), race.benign):
                        races.append(race)
                        self.stats.inter_launch_races += 1
                continue
            was_timed_out = self.timed_out
            found = self._check_launch_pair(s1, s2, races)
            # only fully-checked pairs are cacheable: a budget cut or a
            # report cap mid-pair leaves the verdict partial
            if self.cache is not None \
                    and self.timed_out == was_timed_out \
                    and len(self._keys) < self.max_reports:
                self.cache.put(pair_fp, {"races": found})
        self.stats.solve_seconds += time.perf_counter() - t0
        self.stats.elapsed_seconds = time.perf_counter() - start

        report = StreamReport(
            program=self.program, launches=outcomes,
            inter_launch_races=races, hb=hb, stats=self.stats,
            warnings=self.warnings, timed_out=self.timed_out,
            elapsed_seconds=self.stats.elapsed_seconds)
        self.telemetry.emit(
            "stream_merged", program=self.program.name,
            racy=report.has_issues,
            inter_launch_races=len(races),
            launch_cache_hits=self.stats.launch_cache_hits,
            pair_cache_hits=self.stats.pair_cache_hits,
            timed_out=report.to_dict()["timed_out"])
        return report


def check_stream(program: StreamProgram, **kwargs) -> StreamReport:
    """One-shot convenience: build a checker and run it."""
    return StreamChecker(program, **kwargs).check()
