"""Outside-in span tracing for the end-to-end benchmark.

The checker has no spans of its own yet, so this module wraps the public
entry point of each layer from the outside. A wrapped call records one
span: its name, the span that caused it, the request it belongs to, and
its start, end and self time. Self time is the span's duration minus the
time its child spans cover on the same thread.

Span stacks are kept per thread: the scheduler serves cached jobs on
worker threads, and a span opened there must not become the child of
whatever the main thread has open (one shared stack reports negative
self time). A worker-thread span still carries the current request id.

A function is patched in every loaded ``repro`` module that binds it,
not only where it is defined (``from ..frontend import compile_source``
copies the binding). A missing entry point raises, so a rename in
``src/`` fails the benchmark instead of reporting 0 calls.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: span name -> the ``module:qualname`` entry points it times. A class
#: attribute is patched on the class; a function wherever it is bound.
SPANS: Dict[str, tuple] = {
    "frontend.compile_source": ("repro.frontend.codegen:compile_source",),
    "passes.pipeline": ("repro.passes.manager:PassManager.run",),
    "passes.taint": ("repro.passes.taint:analyze_taint",),
    "static.tier": ("repro.static.tier:run_static_tier",),
    "sym.execute": ("repro.sym.executor:Executor.run",),
    "smt.solver_check": ("repro.smt.solver:Solver.check",),
    "sym.race_check": ("repro.sym.races:RaceChecker.check",),
    "sym.resolvable": ("repro.sym.resolvable:analyze_resolvability",),
    "smt.session_check": ("repro.smt.session:SolverSession.check",),
    "smt.simplify": ("repro.smt.simplify:simplify",),
    "smt.lower": ("repro.smt.bitblast:BitBlaster.assert_term",
                  "repro.smt.bitblast:BitBlaster.blast_assume"),
    # building a SAT instance loads every root clause: SAT-layer work
    "smt.sat": ("repro.smt.sat:SatSolver.__init__",
                "repro.smt.sat:SatSolver.solve"),
    "streams.check": ("repro.streams.checker:StreamChecker.check",),
    "streams.hb": ("repro.streams.hb:HappensBefore.__init__",
                   "repro.streams.hb:HappensBefore.unordered_pairs"),
    "service.scheduler": ("repro.service.scheduler:Scheduler.run",),
    "service.cache_key": ("repro.service.cache:cache_key",),
    "service.cache_get": ("repro.service.cache:ResultCache.get",),
    "service.cache_put": ("repro.service.cache:ResultCache.put",),
}

#: span name -> the workloads whose end-to-end metrics it should move.
#: The traced run fails if a span records no call on one of them.
HOMES: Dict[str, tuple] = {
    "frontend.compile_source": ("replay",),
    "passes.pipeline": ("replay",),
    "passes.taint": ("regular", "streams"),
    "static.tier": ("regular", "streams"),
    "sym.execute": ("corpus",),
    "smt.solver_check": ("corpus",),
    "sym.race_check": ("regular",),
    "sym.resolvable": ("regular",),
    "smt.session_check": ("regular",),
    "smt.simplify": ("regular",),
    "smt.lower": ("regular",),
    "smt.sat": ("regular",),
    "streams.check": ("streams",),
    "streams.hb": ("streams",),
    "service.scheduler": ("replay",),
    "service.cache_key": ("replay",),
    "service.cache_get": ("replay",),
    "service.cache_put": ("replay",),
}

#: the root span of one request; its self time is the unattributed part
REQUEST = "request"


class Tracer:
    """In-memory span recorder. Spans are written out by :meth:`dump`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.request_id: Optional[int] = None
        #: (id, parent id, parent name, request id, name, thread,
        #:  start, end, self seconds)
        self.spans: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack and stack[-1][0] is name:
            # recursion through another entry point of the same layer
            # (assert_term -> blast_assume) stays inside the open span
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        frame = [name, span_id, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[2]
            if parent is not None:
                parent[3] += duration
            self.spans.append((
                span_id, parent[1] if parent else None,
                parent[0] if parent else None, self.request_id, name,
                threading.get_ident(), frame[2], end, duration - frame[3]))

    def request(self, fn, *args, **kwargs):
        """Run one request under a fresh root span and request id."""
        self.request_id = next(self._ids)
        try:
            return self.call(REQUEST, fn, args, kwargs)
        finally:
            self.request_id = None

    # ------------------------------------------------------------------

    def table(self) -> Dict[str, dict]:
        """Per span name: calls, self seconds, total seconds, over the
        spans that ran inside a request."""
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for (_sid, _pid, _pname, rid, name, _thr, start, end,
             self_s) in self.spans:
            if rid is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
        return dict(out)

    def feasibility(self) -> tuple:
        """(calls, seconds) of ``Solver.check`` spans opened directly by
        the symbolic executor: its branch-feasibility queries."""
        calls, seconds = 0, 0.0
        for (_sid, _pid, pname, rid, name, _thr, start, end,
             _self) in self.spans:
            if rid is not None and name == "smt.solver_check" \
                    and pname == "sym.execute":
                calls += 1
                seconds += end - start
        return calls, seconds

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "parent_name", "request", "name",
                "thread", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer: Tracer) -> None:
    """Patch every entry point in :data:`SPANS` to record into *tracer*.

    Raises ``AttributeError`` when an entry point no longer exists.
    """
    for name, targets in SPANS.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                if attr not in vars(owner):
                    raise AttributeError(f"{target} no longer exists")
                setattr(owner, attr, _wrap(tracer, name, vars(owner)[attr]))
                continue
            original = getattr(module, attr)
            traced = _wrap(tracer, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "repro" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
