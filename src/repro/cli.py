"""Command-line interface.

::

    python -m repro check kernel.cu --block 64 --grid 4
    python -m repro repair kernel.cu --block 64 --diff
    python -m repro taint kernel.cu
    python -m repro ir kernel.cu
    python -m repro tests kernel.cu --block 32
    python -m repro batch examples/ --jobs 4
    python -m repro serve --port 8642 --workers 4
    python -m repro submit builtin:paper --wait
    python -m repro cache stats

``check`` analyses a kernel for races/OOB (engine selectable),
``repair`` synthesizes a verified minimal barrier fix for reported
races, ``taint`` prints the §V input advisory, ``ir`` dumps the SSA
bytecode after the standard pipeline, ``tests`` emits concrete per-flow
test vectors, and ``batch`` fans a whole corpus out over the parallel
scheduler with result caching and telemetry (:mod:`repro.service`).

The service family (:mod:`repro.service.daemon`): ``serve`` runs the
persistent daemon (HTTP/JSON API + durable SQLite queue + N leased
workers in one process group), ``submit``/``status``/``result``/
``queue`` are its HTTP clients, and ``cache`` inspects/prunes the
shared content-addressed verdict cache.

Exit codes are uniform across subcommands: 0 — analysis ran and found
nothing (or the repair verified), 1 — races/OOB found, the repair did
not converge, or submitted jobs ended failed/dead, 2 — usage or input
error (unreadable file, parse error, unknown kernel, bad flag value,
malformed job spec, unreachable daemon).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

from .core import GKLEE, GKLEEp, SESA, LaunchConfig
from .frontend import SOURCE_ERRORS


def _read_source(path: str) -> str:
    """Read a kernel source file, closing the handle; on failure print
    a clean one-line error and exit with code 2 (usage error)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
        print(f"repro: cannot read {path!r}: {reason}", file=sys.stderr)
        raise SystemExit(2)


def _dim3(text: str) -> Tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    while len(parts) < 3:
        parts.append(1)
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(f"bad dim3 {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SESA: symbolic race checking for (Mini)CUDA kernels")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="MiniCUDA source file")
        p.add_argument("--kernel", help="kernel name (if several)")

    def launch_options(p: argparse.ArgumentParser) -> None:
        """The launch settings :func:`_config_from` reads."""
        g = p.add_argument_group("launch configuration")
        g.add_argument("--grid", type=_dim3, default=(1, 1, 1),
                       metavar="X[,Y[,Z]]")
        g.add_argument("--block", type=_dim3, default=(64, 1, 1),
                       metavar="X[,Y[,Z]]")
        g.add_argument("--warp-size", type=int, default=32)
        g.add_argument("--lockstep", action="store_true",
                       help="assume SIMD lock-step ordering within warps")
        g.add_argument("--no-oob", action="store_true",
                       help="disable out-of-bounds checking")
        g.add_argument("--symbolic", action="append", default=None,
                       metavar="PARAM",
                       help="force PARAM symbolic (repeatable; default: "
                            "taint-inferred)")
        g.add_argument("--set", action="append", default=[],
                       metavar="PARAM=VALUE",
                       help="concrete scalar value (repeatable)")
        g.add_argument("--array-size", action="append", default=[],
                       metavar="PARAM=COUNT",
                       help="element count for a pointer param")
        g.add_argument("--time-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget (for repair: the whole "
                            "loop)")

    check = sub.add_parser("check", help="run the race/OOB analysis")
    common(check)
    launch_options(check)
    check.add_argument("--engine", choices=["sesa", "gkleep", "gklee"],
                       default="sesa")
    check.add_argument("--swarm", type=int, default=None, metavar="N",
                       help="split the race check into N shard jobs "
                            "run in parallel worker processes and "
                            "merge their verdicts (sesa only)")
    check.add_argument("--profile", action="store_true",
                       help="append a per-phase wall-clock and solver "
                            "dispatch breakdown to the report")
    check.add_argument("--json", action="store_true",
                       help="machine-readable output")

    prof = sub.add_parser(
        "profile", help="profile one analysis run by pipeline layer")
    common(prof)
    launch_options(prof)
    prof.add_argument("--engine", choices=["sesa", "gkleep", "gklee"],
                      default="sesa")
    prof.add_argument("--top", type=int, default=10, metavar="N",
                      help="also list the N most expensive functions "
                           "(default 10)")
    prof.add_argument("--json", action="store_true",
                      help="machine-readable output")

    rep = sub.add_parser(
        "repair", help="synthesize a verified, minimal barrier fix")
    common(rep)
    launch_options(rep)
    rep.add_argument("--max-iterations", type=int, default=8, metavar="N",
                     help="CEGIS iteration budget (default 8)")
    rep.add_argument("--remove-redundant", action="store_true",
                     help="also delete pre-existing barriers proven "
                          "redundant by re-checking")
    rep.add_argument("--diff", action="store_true",
                     help="print only the unified source diff of the fix")
    rep.add_argument("--json", action="store_true",
                     help="machine-readable output")

    taint = sub.add_parser("taint", help="print the §V input advisory")
    common(taint)
    taint.add_argument("--json", action="store_true",
                       help="machine-readable output")

    ir_cmd = sub.add_parser("ir", help="dump the SSA bytecode")
    common(ir_cmd)

    tests = sub.add_parser(
        "tests", help="emit concrete per-flow test vectors")
    common(tests)
    tests.add_argument("--grid", type=_dim3, default=(1, 1, 1))
    tests.add_argument("--block", type=_dim3, default=(64, 1, 1))
    tests.add_argument("--json", action="store_true",
                       help="machine-readable output")

    batch = sub.add_parser(
        "batch", help="analyse a whole corpus through the parallel "
                      "scheduler (with result cache + telemetry)")
    batch.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="'builtin', 'builtin:<suite>' (paper, sdk, reductions, "
             "divergent, lonestar, parboil), a directory of .cu files, "
             "or a single file; default: the full built-in corpus")
    batch.add_argument("--jobs", type=int, default=4, metavar="N",
                       help="concurrent worker processes (default 4)")
    batch.add_argument("--engine", choices=["sesa", "gkleep", "gklee"],
                       default="sesa")
    batch.add_argument("--grid", type=_dim3, default=(1, 1, 1),
                       metavar="X[,Y[,Z]]",
                       help="launch grid for file/directory targets")
    batch.add_argument("--block", type=_dim3, default=(64, 1, 1),
                       metavar="X[,Y[,Z]]",
                       help="launch block for file/directory targets")
    batch.add_argument("--cache-dir", default=".repro-cache",
                       metavar="DIR",
                       help="verdict cache location (default .repro-cache)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    batch.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="hard per-job wall-clock limit")
    batch.add_argument("--retries", type=int, default=1, metavar="N",
                       help="retries for crashed workers (default 1)")
    batch.add_argument("--trace", default=None, metavar="PATH",
                       help="JSONL telemetry trace "
                            "(default <cache-dir>/trace.jsonl)")
    batch.add_argument("--limit", type=int, default=None, metavar="N",
                       help="only run the first N jobs of the corpus")
    batch.add_argument("--repair", action="store_true",
                       help="run the barrier-repair loop on every racy "
                            "sesa job and record the synthesized fix")
    batch.add_argument("--swarm", type=int, default=None, metavar="N",
                       help="swarm mode: shard every kernel's check "
                            "into N partitions and merge per kernel "
                            "(non-sesa jobs fall back to monolithic)")
    batch.add_argument("--json", action="store_true",
                       help="machine-readable output")

    serve = sub.add_parser(
        "serve", help="run the persistent race-check daemon "
                      "(HTTP API + durable queue + worker fleet)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="API port (default 8642; 0 picks a free "
                            "port)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker daemons in this process (default 2)")
    serve.add_argument("--db", default=".repro-daemon/queue.sqlite3",
                       metavar="PATH",
                       help="durable job queue database "
                            "(default .repro-daemon/queue.sqlite3)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       metavar="DIR",
                       help="shared verdict cache (default .repro-cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache (every duplicate "
                            "submission re-runs the solver)")
    serve.add_argument("--lease-ttl", type=float, default=30.0,
                       metavar="SECONDS",
                       help="worker lease time-to-live (default 30); "
                            "a crashed worker's job is reclaimed "
                            "within ~1.5 TTL")
    serve.add_argument("--poll-interval", type=float, default=0.2,
                       metavar="SECONDS",
                       help="idle worker claim poll (default 0.2)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="hard per-job wall-clock limit")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="retries for crashed/expired jobs "
                            "(default 1)")
    serve.add_argument("--sample-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="queue_sample telemetry period (default 5)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="JSONL telemetry trace, appended across "
                            "restarts (default <db dir>/trace.jsonl)")

    def client_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="http://127.0.0.1:8642",
                       metavar="URL", help="daemon API base URL")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    submit = sub.add_parser(
        "submit", help="submit kernels to a running daemon")
    submit.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="'builtin', 'builtin:<suite>', a directory of .cu files, "
             "or a single file; default: the full built-in corpus")
    submit.add_argument("--engine", choices=["sesa", "gkleep", "gklee"],
                        default="sesa")
    submit.add_argument("--grid", type=_dim3, default=(1, 1, 1),
                        metavar="X[,Y[,Z]]",
                        help="launch grid for file/directory targets")
    submit.add_argument("--block", type=_dim3, default=(64, 1, 1),
                        metavar="X[,Y[,Z]]",
                        help="launch block for file/directory targets")
    submit.add_argument("--swarm", type=int, default=None, metavar="N",
                        help="ask the daemon to expand each kernel "
                             "into N shard jobs server-side and merge "
                             "the verdicts")
    submit.add_argument("--wait", action="store_true",
                        help="poll until every submitted job is "
                             "terminal and print its verdict")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="--wait polling budget (default 600)")
    client_common(submit)

    status = sub.add_parser(
        "status", help="query job state on a running daemon")
    status.add_argument("job_ids", nargs="+", metavar="JOB_ID")
    client_common(status)

    result = sub.add_parser(
        "result", help="fetch terminal job results from a daemon")
    result.add_argument("job_ids", nargs="+", metavar="JOB_ID")
    client_common(result)

    queue_cmd = sub.add_parser(
        "queue", help="queue depth, lease and worker health")
    client_common(queue_cmd)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or prune the result cache")
    cache_sub = cache_cmd.add_subparsers(dest="cache_command",
                                         required=True)
    cstats = cache_sub.add_parser(
        "stats", help="entries, bytes, and telemetry hit-rate")
    cstats.add_argument("--cache-dir", default=".repro-cache",
                        metavar="DIR")
    cstats.add_argument("--trace", default=None, metavar="PATH",
                        help="JSONL trace to compute the lifetime "
                             "hit-rate from")
    cstats.add_argument("--json", action="store_true")
    cprune = cache_sub.add_parser(
        "prune", help="evict old entries / bound total size")
    cprune.add_argument("--cache-dir", default=".repro-cache",
                        metavar="DIR")
    cprune.add_argument("--max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="evict entries older than this")
    cprune.add_argument("--max-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="evict oldest entries until the cache "
                             "fits in this many bytes")
    cprune.add_argument("--json", action="store_true")

    stream = sub.add_parser(
        "stream", help="check a multi-kernel stream program for "
                       "inter-launch races")
    stream.add_argument("script", metavar="SCRIPT",
                        help="JSON launch script, or builtin:<case> "
                             "from the built-in stream suite "
                             "(builtin: lists the cases)")
    stream.add_argument("--cache-dir", default=".repro-cache",
                        metavar="DIR",
                        help="per-launch verdict cache (re-checks "
                             "after editing one kernel replay every "
                             "untouched launch)")
    stream.add_argument("--no-cache", action="store_true",
                        help="run every launch from scratch")
    stream.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget for the whole program")
    stream.add_argument("--trace", default=None, metavar="PATH",
                        help="append JSONL telemetry events "
                             "(stream_planned / launch_finished / "
                             "stream_merged) to PATH")
    stream.add_argument("--json", action="store_true",
                        help="machine-readable output")
    return parser


def _parse_kv(pairs: List[str], what: str) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            print(f"repro: bad {what} {pair!r}: expected PARAM=VALUE",
                  file=sys.stderr)
            raise SystemExit(2)
        key, value = pair.split("=", 1)
        try:
            out[key] = int(value, 0)
        except ValueError:
            print(f"repro: bad {what} {pair!r}: VALUE must be an integer",
                  file=sys.stderr)
            raise SystemExit(2)
    return out


def _config_from(args) -> LaunchConfig:
    """The launch configuration of ``check``/``profile``/``repair``."""
    return LaunchConfig(
        grid_dim=args.grid, block_dim=args.block,
        warp_size=args.warp_size, warp_lockstep=args.lockstep,
        check_oob=not args.no_oob,
        symbolic_inputs=set(args.symbolic) if args.symbolic is not None
        else None,
        scalar_values=_parse_kv(args.set, "--set"),
        array_sizes=_parse_kv(args.array_size, "--array-size"),
        time_budget_seconds=args.time_budget)


def _render_swarm_result(result) -> None:
    """Human-readable rendering of a merged swarm JobResult."""
    verdict = result.verdict or {}
    swarm = verdict.get("swarm") or {}
    races = verdict.get("races", [])
    oobs = verdict.get("oobs", [])
    print(f"kernel {verdict.get('kernel', result.job_id)} "
          f"[{verdict.get('engine', 'sesa')}, swarm "
          f"{swarm.get('shards', '?')} shards, "
          f"{swarm.get('total_pairs', '?')} pairs]")
    print(f"  swarm verdict: {swarm.get('verdict', '?')}"
          + (f" (unresolved: {', '.join(swarm['unresolved'])})"
             if swarm.get("unresolved") else ""))
    for race in races:
        benign = " (Benign)" if race.get("benign") else ""
        lines = "-".join(str(l) for l in race.get("lines", []))
        print(f"  RACE: {race.get('kind')}{benign} on "
              f"{race.get('object')} (lines {lines})")
    for oob in oobs:
        print(f"  OOB: {oob.get('object')} at line {oob.get('line')}")
    if not races and not oobs:
        print("  no races found")
    for warning in verdict.get("warnings", []):
        if warning.startswith("swarm:"):
            print(f"  WARNING: {warning}")


def cmd_check(args) -> int:
    """The ``check`` subcommand: analyse and report races/OOB."""
    source = _read_source(args.file)
    if args.swarm is not None:
        if args.swarm < 1:
            print("repro: --swarm must be >= 1", file=sys.stderr)
            return 2
        from .service import JobSpec, JobValidationError, \
            run_swarm_check
        spec = JobSpec(
            job_id=os.path.basename(args.file), source=source,
            kernel_name=args.kernel, engine=args.engine,
            config=_config_from(args))
        try:
            spec.validate()
        except JobValidationError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2
        result = run_swarm_check(spec, args.swarm)
        if args.json:
            print(json.dumps(result.to_dict(), indent=2))
        elif result.status in ("done", "cached"):
            _render_swarm_result(result)
        if result.status not in ("done", "cached"):
            if not args.json:
                print(f"repro: swarm check failed: {result.error}",
                      file=sys.stderr)
            return 2
        verdict = result.verdict or {}
        found = any(not r.get("benign")
                    for r in verdict.get("races", [])) \
            or bool(verdict.get("oobs"))
        return 1 if found else 0
    engine_cls = {"sesa": SESA, "gkleep": GKLEEp, "gklee": GKLEE}[args.engine]
    tool = engine_cls.from_source(source, args.kernel)
    report = tool.check(_config_from(args))
    if args.json:
        payload = report.to_dict()
        if args.profile:
            payload["profile"] = _phase_breakdown(report.check_stats)
        print(json.dumps(payload, indent=2))
    else:
        print(report.summary())
        if args.profile:
            _print_phase_breakdown(report.check_stats)
    return 1 if (report.has_races or report.has_oob) else 0


def _phase_breakdown(cs) -> dict:
    """Per-phase wall clock and solver dispatch from a CheckStats."""
    if cs is None:
        return {}
    # the four phases are disjoint: the static tier's enumeration runs
    # inside the pair steps and is carved out of solve_seconds
    total = cs.static_seconds + cs.execute_seconds + \
        cs.pairgen_seconds + cs.solve_seconds
    return {
        "tier": cs.tier,
        "static_bail_reason": cs.static_bail_reason,
        "phases": {
            "static_seconds": round(cs.static_seconds, 6),
            "execute_seconds": round(cs.execute_seconds, 6),
            "pairgen_seconds": round(cs.pairgen_seconds, 6),
            "solve_seconds": round(cs.solve_seconds, 6),
            "total_seconds": round(total, 6),
        },
        "dispatch": {
            "static_pairs_checked": cs.static_pairs_checked,
            "static_pairs_discharged": cs.static_pairs_discharged,
            "pairs_considered": cs.pairs_considered,
            "queries": cs.queries,
            "by_affine": cs.by_affine,
            "by_memo": cs.by_memo,
            "pair_memo_hits": cs.pair_memo_hits,
            "by_simplifier": cs.solver.by_simplifier,
            "by_interval": cs.solver.by_interval,
            "by_range": cs.solver.by_range,
            "by_session": cs.solver.by_session,
            "sat_instances": cs.solver.sat_instances,
            "sat_conflicts": cs.solver.sat_conflicts,
        },
    }


def _print_phase_breakdown(cs) -> None:
    data = _phase_breakdown(cs)
    if not data:
        return
    phases = data["phases"]
    total = max(phases["total_seconds"], 1e-9)
    tier_note = "every pair enumerated, no solver" \
        if data["tier"] == "static" else \
        (f"static tier: {data['static_bail_reason']}"
         if data["static_bail_reason"] else "static tier off")
    print(f"tier: {data['tier']} ({tier_note})")
    print("profile (per-phase wall clock):")
    for name in ("static_seconds", "execute_seconds",
                 "pairgen_seconds", "solve_seconds"):
        label = name.replace("_seconds", "").replace("static",
                                                     "static-tier")
        print(f"  {label:<11} {phases[name]:8.4f}s "
              f"({phases[name] / total:5.1%})")
    print(f"  {'total':<11} {phases['total_seconds']:8.4f}s")
    disp = data["dispatch"]
    if disp["static_pairs_checked"]:
        print(f"static tier: {disp['static_pairs_checked']} pairs "
              f"enumerated, {disp['static_pairs_discharged']} decided "
              f"without a solver")
    print("dispatch: "
          f"{disp['pairs_considered']} pairs, {disp['queries']} queries "
          f"(affine {disp['by_affine']}, memo {disp['by_memo']}, "
          f"pair-memo {disp['pair_memo_hits']}, "
          f"simplifier {disp['by_simplifier']}, "
          f"interval {disp['by_interval']}, "
          f"range {disp['by_range']}, "
          f"sat {disp['by_session']} on {disp['sat_instances']} "
          f"instances; {disp['sat_conflicts']} conflicts)")


#: pipeline layer of a profiled function, from its source path — the
#: buckets the README's "solver stack" section talks about
_PROFILE_BUCKETS = (
    ("/static/", "static-tier"),
    ("/smt/sat", "sat-core"),
    ("/smt/cnf", "lowering"),
    ("/smt/bitblast", "lowering"),
    ("/smt/simplify", "simplify"),
    ("/smt/subst", "simplify"),
    ("/smt/", "smt-other"),
    ("/sym/races", "race-check"),
    ("/sym/pairs", "race-check"),
    ("/sym/", "symbolic-exec"),
    ("/frontend/", "frontend"),
    ("/ir", "frontend"),
)


def _profile_bucket(path: str) -> str:
    path = path.replace("\\", "/")
    for needle, bucket in _PROFILE_BUCKETS:
        if needle in path:
            return bucket
    return "other"


def cmd_profile(args) -> int:
    """The ``profile`` subcommand: one analysis run under cProfile,
    self-time bucketed by pipeline layer (frontend / symbolic exec /
    race check / simplify / lowering / SAT core) plus the per-phase
    wall clock — the measurement loop that drives solver work like the
    arena CDCL core and the batched lowering."""
    import cProfile
    source = _read_source(args.file)
    engine_cls = {"sesa": SESA, "gkleep": GKLEEp, "gklee": GKLEE}[args.engine]
    tool = engine_cls.from_source(source, args.kernel)
    config = _config_from(args)
    prof = cProfile.Profile()
    prof.enable()
    report = tool.check(config)
    prof.disable()
    prof.create_stats()

    buckets: dict = {}
    rows = []
    for (path, _line, func), (cc, nc, tt, ct, _callers) \
            in prof.stats.items():  # type: ignore[attr-defined]
        bucket = _profile_bucket(path) if path else "other"
        buckets[bucket] = buckets.get(bucket, 0.0) + tt
        rows.append((tt, nc, f"{os.path.basename(path)}:{func}"
                     if path else func))
    total = sum(buckets.values()) or 1e-9
    rows.sort(reverse=True)

    payload = {
        "kernel": args.kernel or os.path.basename(args.file),
        "engine": args.engine,
        "buckets": {k: round(v, 6) for k, v in sorted(
            buckets.items(), key=lambda kv: -kv[1])},
        "hotspots": [{"self_seconds": round(tt, 6), "calls": nc,
                      "where": where}
                     for tt, nc, where in rows[:max(args.top, 0)]],
        "races": len(report.races),
        "oobs": len(report.oobs),
    }
    payload.update(_phase_breakdown(report.check_stats))
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"profile of {payload['kernel']} "
          f"[{args.engine}]: "
          f"{len(report.races)} race(s), {len(report.oobs)} OOB")
    print("self-time by pipeline layer:")
    for bucket, seconds in payload["buckets"].items():
        print(f"  {bucket:<14} {seconds:8.4f}s ({seconds / total:5.1%})")
    _print_phase_breakdown(report.check_stats)
    if payload["hotspots"]:
        print(f"top {len(payload['hotspots'])} functions by self time:")
        for spot in payload["hotspots"]:
            print(f"  {spot['self_seconds']:8.4f}s "
                  f"x{spot['calls']:<6} {spot['where']}")
    return 0


def cmd_repair(args) -> int:
    """The ``repair`` subcommand: CEGIS barrier synthesis.

    Exit 0 when the synthesized fix (or the unmodified kernel) verifies
    race-free; exit 1 when the loop fails to converge or the rendered
    fix fails re-verification.
    """
    from .repair import repair_source
    source = _read_source(args.file)
    # the budget bounds the whole loop, not each re-check
    config = replace(_config_from(args), time_budget_seconds=None)
    result = repair_source(
        source, config=config, kernel_name=args.kernel,
        max_iterations=args.max_iterations,
        remove_redundant=args.remove_redundant,
        time_budget_seconds=args.time_budget)
    ok = result.converged and result.verified
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    elif args.diff:
        if result.diff:
            print(result.diff, end="")
        else:
            print(f"repro: no fix to print ({result.message or 'no edits'})",
                  file=sys.stderr)
    else:
        print(result.summary())
        if result.diff:
            print()
            print(result.diff, end="")
    return 0 if ok else 1


def cmd_taint(args) -> int:
    """The ``taint`` subcommand: per-input symbolisation advisory."""
    tool = SESA.from_source(_read_source(args.file), args.kernel)
    inferred = tool.inferred_symbolic_inputs()
    if args.json:
        print(json.dumps({
            "kernel": tool.kernel.name,
            "symbolic": sorted(inferred),
            "total_inputs": len(tool.taint.verdicts),
            "verdicts": {
                name: {"symbolic": name in inferred,
                       "is_pointer": v.is_pointer,
                       "flows_into_address": v.flows_into_address,
                       "reason": v.reason}
                for name, v in tool.taint.verdicts.items()},
        }, indent=2))
        return 0
    print(f"kernel {tool.kernel.name}: "
          f"{len(inferred)}/{len(tool.taint.verdicts)} inputs symbolic")
    for name, v in tool.taint.verdicts.items():
        marker = "SYMBOLIC " if name in inferred else "concrete "
        print(f"  {marker} {name:20s} {v.reason}")
    return 0


def cmd_ir(args) -> int:
    """The ``ir`` subcommand: dump the SSA bytecode with the §V
    flow-merging annotations (combine / combine_ite / split)."""
    from .ir import module_to_str
    from .passes import annotate_flow_merging
    # the annotations are IR writes: a compile of the tool's own
    tool = SESA.from_source(_read_source(args.file), args.kernel)
    annotate_flow_merging(tool.kernel, tool.taint)
    print(module_to_str(tool.module))
    return 0


def cmd_tests(args) -> int:
    """The ``tests`` subcommand: concrete per-flow test vectors."""
    tool = SESA.from_source(_read_source(args.file), args.kernel)
    config = LaunchConfig(grid_dim=args.grid, block_dim=args.block)
    vectors = tool.generate_tests(config)
    if args.json:
        print(json.dumps({"kernel": tool.kernel.name,
                          "vectors": [dict(sorted(v.items()))
                                      for v in vectors]}, indent=2))
        return 0
    if not vectors:
        print("no feasible flows (empty kernel?)")
        return 0
    for i, vec in enumerate(vectors):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(vec.items()))
        print(f"test[{i}]: {inner}")
    return 0


def cmd_batch(args) -> int:
    """The ``batch`` subcommand: corpus-scale parallel analysis."""
    from .service import load_corpus, run_batch
    try:
        specs = load_corpus(args.targets, engine=args.engine,
                            grid_dim=args.grid, block_dim=args.block,
                            time_budget_seconds=args.timeout)
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("repro: corpus is empty (no kernel sources found)",
              file=sys.stderr)
        return 2
    if args.swarm is not None and args.swarm < 1:
        print("repro: --swarm must be >= 1", file=sys.stderr)
        return 2
    if args.limit is not None:
        # --limit 0 legitimately runs zero jobs (a dry-run of corpus
        # loading); a negative limit is a usage error, not a slice
        # from the end
        if args.limit < 0:
            print("repro: --limit must be >= 0", file=sys.stderr)
            return 2
        specs = specs[:args.limit]
    if args.repair:
        for spec in specs:
            spec.repair = True
    # malformed corpus entries are usage errors (exit 2), not worker
    # tracebacks: reject them before any process is forked
    from .service import JobValidationError
    try:
        for spec in specs:
            spec.validate()
    except JobValidationError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    cache_dir = None if args.no_cache else args.cache_dir
    trace_path = args.trace
    dirs = [cache_dir] if cache_dir else []
    if trace_path is None:
        dirs.append(cache_dir or ".repro-cache")
        trace_path = os.path.join(dirs[-1], "trace.jsonl")
    # an unusable cache or trace directory (say, a regular file) is a
    # usage error, not a traceback
    try:
        for path in dirs:
            os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"repro: cannot use {exc.filename!r} as a directory: "
              f"{exc.strerror}", file=sys.stderr)
        return 2
    if args.swarm is not None:
        from .service import ResultCache, Telemetry, run_swarm_batch
        cache = ResultCache(cache_dir) if cache_dir else None
        with Telemetry(trace_path) as telemetry:
            batch = run_swarm_batch(
                specs, args.swarm, max_workers=args.jobs,
                timeout_seconds=args.timeout,
                max_retries=args.retries, cache=cache,
                telemetry=telemetry)
    else:
        batch = run_batch(specs, max_workers=args.jobs,
                          timeout_seconds=args.timeout,
                          max_retries=args.retries,
                          cache_dir=cache_dir, trace_path=trace_path)
    if args.json:
        payload = batch.to_dict()
        payload["trace"] = trace_path
        print(json.dumps(payload, indent=2))
    else:
        from .service import Telemetry
        width = max((len(j.job_id) for j in batch.jobs), default=0)
        for job in batch.jobs:
            tags = ", ".join(job.issue_tags()) or "clean"
            if job.status in ("error", "timeout"):
                tags = (job.error or "").strip().splitlines()[-1] \
                    if job.error else "-"
            flag = " [cached]" if job.cached else ""
            if job.repair:
                flag += (" [repaired]" if job.repair.get("verified")
                         else " [repair failed]")
            print(f"{job.status.upper():8s} {job.job_id:{width}s} "
                  f"{job.elapsed_seconds:7.2f}s  {tags}{flag}")
        print()
        print(Telemetry.summary_table(batch.jobs))
        print(f"cache: {batch.cache_hits} hits, "
              f"{batch.cache_misses} misses"
              + ("" if cache_dir else " (disabled)"))
        print(f"wall clock: {batch.elapsed_seconds:.2f}s "
              f"({args.jobs} workers); trace: {trace_path}")
    return 0 if batch.ok else 1


def cmd_serve(args) -> int:
    """The ``serve`` subcommand: run the persistent daemon until
    SIGINT/SIGTERM, then drain in-flight jobs and exit 0."""
    import signal
    import threading
    from .service.daemon import Daemon
    cache_dir = None if args.no_cache else args.cache_dir
    trace = args.trace
    if trace is None:
        db_dir = os.path.dirname(os.path.abspath(args.db))
        os.makedirs(db_dir, exist_ok=True)
        trace = os.path.join(db_dir, "trace.jsonl")
    daemon = Daemon(
        db_path=args.db, cache_dir=cache_dir, trace_path=trace,
        workers=args.workers, lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
        timeout_seconds=args.timeout,
        sample_interval=args.sample_interval,
        max_attempts=args.retries + 1,
        host=args.host, port=args.port)
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    try:
        daemon.start()
    except OSError as exc:
        print(f"repro: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"repro daemon listening on {daemon.url}  "
          f"[workers={args.workers} db={args.db} "
          f"cache={'off' if cache_dir is None else cache_dir} "
          f"lease-ttl={args.lease_ttl:g}s trace={trace}]", flush=True)
    stop.wait()
    print("repro daemon: draining in-flight jobs ...", flush=True)
    daemon.stop(drain=True)
    print("repro daemon: stopped cleanly", flush=True)
    return 0


def _client(args):
    from .service.daemon import DaemonClient
    return DaemonClient(args.url)


def _client_errors():
    from .service.daemon import DaemonError, DaemonUnavailable
    return DaemonError, DaemonUnavailable


def cmd_submit(args) -> int:
    """The ``submit`` subcommand: enqueue a corpus over HTTP."""
    from .service import JobValidationError, load_corpus
    DaemonError, DaemonUnavailable = _client_errors()
    try:
        specs = load_corpus(args.targets, engine=args.engine,
                            grid_dim=args.grid, block_dim=args.block)
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("repro: corpus is empty (no kernel sources found)",
              file=sys.stderr)
        return 2
    if args.swarm is not None and args.swarm < 1:
        print("repro: --swarm must be >= 1", file=sys.stderr)
        return 2
    client = _client(args)
    submitted = []
    try:
        for spec in specs:
            body = spec.to_dict()
            body["label"] = body.pop("job_id")
            if args.swarm is not None:
                body["swarm"] = args.swarm
            submitted.append(client.submit(body)[0])
    except (DaemonError, DaemonUnavailable, JobValidationError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if not args.wait:
        if args.json:
            print(json.dumps({"jobs": submitted}, indent=2))
        else:
            for job in submitted:
                dedup = "  [deduped]" if job["deduped"] else ""
                print(f"{job['job_id']}  {job['label']}{dedup}")
        return 0
    # --wait: poll every submitted job to a terminal state
    job_ids = [job["job_id"] for job in submitted]
    try:
        results = client.wait(job_ids, timeout=args.wait_timeout)
    except (DaemonError, DaemonUnavailable) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {"jobs": [results.get(job_id, {"job_id": job_id,
                                           "terminal": False})
                      for job_id in job_ids]}, indent=2))
    else:
        from .service.daemon import format_result_line
        width = max((len(r.get("label") or r["job_id"])
                     for r in results.values()), default=0)
        for job_id in job_ids:
            payload = results.get(job_id)
            if payload is None:
                print(f"PENDING  {job_id} (still running after "
                      f"{args.wait_timeout:g}s)")
            else:
                print(format_result_line(payload, width))
    from .service import JobState
    ok = len(results) == len(job_ids) and all(
        r.get("state") == JobState.DONE for r in results.values())
    return 0 if ok else 1


def cmd_status(args) -> int:
    """The ``status`` subcommand: job states over HTTP."""
    DaemonError, DaemonUnavailable = _client_errors()
    client = _client(args)
    payloads = []
    try:
        for job_id in args.job_ids:
            payloads.append(client.status(job_id))
    except (DaemonError, DaemonUnavailable) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"jobs": payloads}, indent=2))
    else:
        for p in payloads:
            lease = p.get("lease")
            extra = (f"  lease={lease['owner']} "
                     f"({lease['deadline_in_seconds']:+.1f}s)"
                     if lease else "")
            err = f"  {p['error']}" if p.get("error") else ""
            print(f"{p['state'].upper():8s} {p['job_id']}  "
                  f"{p.get('label') or ''}  "
                  f"attempts={p['attempts']}/{p['max_attempts']}"
                  f"{extra}{err}")
    return 0


def cmd_result(args) -> int:
    """The ``result`` subcommand: terminal verdicts over HTTP.

    Exit 0 when every job is terminal and ``done``; 1 when any job
    is still running, failed, or dead.
    """
    from .service import JobState
    from .service.daemon import format_result_line
    DaemonError, DaemonUnavailable = _client_errors()
    client = _client(args)
    payloads = []
    try:
        for job_id in args.job_ids:
            payloads.append(client.result(job_id))
    except (DaemonError, DaemonUnavailable) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"jobs": payloads}, indent=2))
    else:
        width = max(len(p.get("label") or p["job_id"])
                    for p in payloads)
        for p in payloads:
            if p.get("terminal"):
                print(format_result_line(p, width))
            else:
                print(f"{p['state'].upper():8s} "
                      f"{p.get('label') or p['job_id']:{width}s} "
                      f"   --.--s  not terminal yet")
    ok = all(p.get("terminal") and p.get("state") == JobState.DONE
             for p in payloads)
    return 0 if ok else 1


def cmd_queue(args) -> int:
    """The ``queue`` subcommand: daemon health snapshot."""
    DaemonError, DaemonUnavailable = _client_errors()
    try:
        stats = _client(args).queue()
    except (DaemonError, DaemonUnavailable) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    stats.pop("__code__", None)
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    by_state = ", ".join(f"{k} {v}" for k, v in
                         sorted(stats["by_state"].items())) or "empty"
    age = stats.get("oldest_age_seconds")
    print(f"queue: depth {stats['depth']}, leased {stats['leased']} "
          f"({by_state})")
    print(f"oldest waiting job: "
          f"{'-' if age is None else f'{age:.1f}s'}")
    for wid, w in sorted(stats.get("workers", {}).items()):
        mark = "up" if w.get("alive") else "DOWN"
        print(f"worker {wid}: {mark}, {w['jobs']} jobs, "
              f"{w['jobs_per_sec']:.2f} jobs/s")
    reaper = stats.get("reaper", {})
    print(f"reaper: {reaper.get('reclaimed', 0)} reclaimed, "
          f"{reaper.get('dead', 0)} dead")
    if "cache" in stats:
        c = stats["cache"]
        print(f"cache: {c['hits']} hits, {c['misses']} misses "
              f"({c['dir']})")
    return 0


def cmd_cache(args) -> int:
    """The ``cache`` subcommand: stats and pruning for the one store a
    long-running daemon shares with batch runs — verdicts and stream
    entries in one walk."""
    from .service import ResultCache, trace_hit_rate
    if not os.path.isdir(args.cache_dir):
        print(f"repro: no cache at {args.cache_dir!r}",
              file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        trace = args.trace or os.path.join(args.cache_dir,
                                           "trace.jsonl")
        rate = trace_hit_rate(trace)
        if rate is not None:
            stats["telemetry"] = rate
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"cache {stats['dir']}: {stats['entries']} entries, "
                  f"{stats['bytes']} bytes")
            if stats["oldest_age_seconds"] is not None:
                print(f"age span: {stats['newest_age_seconds']:.0f}s "
                      f"- {stats['oldest_age_seconds']:.0f}s")
            if rate is not None and rate["lookups"]:
                print(f"hit-rate: {rate['hit_rate']:.1%} "
                      f"({rate['hits']} hits / {rate['lookups']} "
                      f"lookups, from {rate['trace']})")
        return 0
    # prune
    if args.max_age is None and args.max_bytes is None:
        print("repro: cache prune needs --max-age and/or --max-bytes",
              file=sys.stderr)
        return 2
    outcome = cache.prune(max_age_seconds=args.max_age,
                          max_bytes=args.max_bytes)
    if args.json:
        print(json.dumps(outcome, indent=2))
    else:
        print(f"pruned {outcome['removed']} entries "
              f"({outcome['freed_bytes']} bytes) from "
              f"{outcome['dir']}; {outcome['kept']} kept")
    return 0


def cmd_stream(args) -> int:
    """The ``stream`` subcommand: happens-before construction plus
    cross-launch race checking over a whole multi-kernel program."""
    from .service import ResultCache
    from .streams import StreamChecker, load_stream_script

    if args.script.startswith("builtin:"):
        from .kernels.streams import STREAM_CASES, get_stream_case
        name = args.script.split(":", 1)[1]
        if not name:
            for case in STREAM_CASES:
                tag = "racy" if case.expected_racy else "safe"
                print(f"builtin:{case.name:<32} [{tag}] {case.notes}")
            return 0
        program = get_stream_case(name).program
    else:
        if not os.path.isfile(args.script):
            print(f"repro: {args.script}: no such launch script",
                  file=sys.stderr)
            return 2
        program = load_stream_script(args.script)

    telemetry = None
    if args.trace:
        from .service import Telemetry
        telemetry = Telemetry(trace_path=args.trace, mode="a")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    checker = StreamChecker(
        program, cache=cache, telemetry=telemetry,
        config=LaunchConfig(time_budget_seconds=args.time_budget))
    report = checker.check()
    if telemetry is not None:
        telemetry.close()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 1 if report.has_issues else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Input problems — unreadable files, lex/parse/sema failures, unknown
    kernel names, malformed flag values — exit 2 uniformly, keeping 1
    reserved for "the analysis ran and found defects".
    """
    args = build_parser().parse_args(argv)
    handler = {"check": cmd_check, "profile": cmd_profile,
               "repair": cmd_repair,
               "taint": cmd_taint, "ir": cmd_ir, "tests": cmd_tests,
               "batch": cmd_batch, "serve": cmd_serve,
               "submit": cmd_submit, "status": cmd_status,
               "result": cmd_result, "queue": cmd_queue,
               "cache": cmd_cache, "stream": cmd_stream}[args.command]
    try:
        return handler(args)
    except SOURCE_ERRORS as exc:
        target = getattr(args, "file", "<input>")
        print(f"repro: {target}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        # bad --kernel name, ambiguous kernel, malformed PARAM=VALUE
        reason = exc.args[0] if exc.args else exc
        print(f"repro: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
