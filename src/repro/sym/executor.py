"""The parametric symbolic executor (paper §IV).

One parametric thread executes per flow under a canonical sequential
schedule. The engine runs in two modes:

* ``"sesa"`` — divergent *diamonds* (branches whose arms reconverge at the
  immediate post-dominator without barriers, returns, or loops) are
  executed under access guards and merged with ``ite`` values — the
  paper's flow combining. Only genuinely structural divergence (symbolic
  loop-exit branches, barriers inside branches) splits flows.
* ``"gkleep"`` — every symbolic branch splits the flow, reproducing the
  GKLEEp comparator's exponential flow growth (Table II).

Flow splits refine the flow condition (Fig. 4); infeasible refinements
(e.g. ``tid%2 != 0 ∧ tid%4 == 0``'s complement) are pruned with the
solver, exactly as the paper describes for flow F4.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import ir
from ..smt import (
    BOOL, FALSE, TRUE, CheckResult, Solver, SolverStats, Term, mk_and,
    mk_ashr, mk_bool, mk_bv, mk_bv_var, mk_bvand, mk_bvnot, mk_bvor,
    mk_bvxor, mk_bxor,
    mk_eq, mk_extract, mk_ite, mk_lshr, mk_ne, mk_not, mk_or, mk_sdiv,
    mk_sext, mk_shl, mk_sle, mk_slt, mk_srem, mk_sub, mk_udiv, mk_ule,
    mk_ult, mk_urem, mk_zext,
)
from ..smt.terms import (
    mk_add, mk_mul, mk_sge, mk_sgt, mk_uge, mk_ugt, mk_uf,
)
from .access import Access, AccessKind, AccessSet, summarize_access_set
from .config import LaunchConfig, SymbolicEnv
from .memory import MemoryObject, ObjectLog, WriteRecord, make_havoc
from .state import FlowState
from .value import Pointer, SymValue, fit_width, width_of


class ExecutionError(Exception):
    """Raised on a malformed kernel or an unsupported construct."""


class BudgetExhausted(Exception):
    """The step/flow budget ran out (reported as a timeout, cf. 'T.O.')."""


@dataclass
class ExecutionResult:
    """Everything race checking and reporting need from one run."""

    kernel: str
    mode: str
    config: LaunchConfig
    env: SymbolicEnv
    #: unioned access set per barrier interval
    bi_access_sets: List[AccessSet] = field(default_factory=list)
    objects: List[MemoryObject] = field(default_factory=list)
    max_flows: int = 1
    num_splits: int = 0
    num_barriers: int = 0
    steps: int = 0
    timed_out: bool = False
    elapsed_seconds: float = 0.0
    #: loop-invariant duplicate records dropped at AccessSet.add time
    dedup_skipped: int = 0
    #: raw records collapsed away by affine-run summarization
    summarized_accesses: int = 0
    warnings: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    final_flow_conds: List[Term] = field(default_factory=list)
    #: split events for the Fig. 4 flow tree: (parent, child, refinement)
    flow_events: List[tuple] = field(default_factory=list)
    #: assert() sites: (condition under flow+guard, negated-claim, loc)
    assertions: List[tuple] = field(default_factory=list)
    #: how the branch-feasibility checks were answered
    feasibility: SolverStats = field(default_factory=SolverStats)

    def all_accesses(self) -> List[Access]:
        return [a for s in self.bi_access_sets for a in s]


_INT_BINOP = {
    "add": mk_add, "sub": mk_sub, "mul": mk_mul,
    "udiv": mk_udiv, "sdiv": mk_sdiv, "urem": mk_urem, "srem": mk_srem,
    "and": mk_bvand, "or": mk_bvor, "xor": mk_bvxor,
    "shl": mk_shl, "lshr": mk_lshr, "ashr": mk_ashr,
}

_ICMP = {
    "eq": mk_eq, "ne": mk_ne,
    "ult": mk_ult, "ule": mk_ule, "ugt": mk_ugt, "uge": mk_uge,
    "slt": mk_slt, "sle": mk_sle, "sgt": mk_sgt, "sge": mk_sge,
}

_BOOL_BINOP = {"and": mk_and, "or": mk_or, "xor": mk_bxor}


class Executor:
    """Runs one kernel parametrically and collects access sets."""

    def __init__(self, module: ir.Module, kernel: ir.Function,
                 config: LaunchConfig, mode: str = "sesa",
                 sink_value_ids: Optional[Set[int]] = None) -> None:
        if mode not in ("sesa", "gkleep"):
            raise ValueError(f"unknown mode {mode}")
        self.module = module
        self.kernel = kernel
        self.config = config
        self.mode = mode
        self.sink_value_ids = sink_value_ids
        self.env = SymbolicEnv(config)

        self.cfg = ir.CFG(kernel)
        self.ipostdom = self.cfg.ipostdom()
        self.mergeable = self._classify_branches()

        self.objects: Dict[int, MemoryObject] = {}
        self.arg_values: Dict[int, SymValue] = {}
        self._local_objs: Dict[int, MemoryObject] = {}
        self._setup_objects()

        self.steps = 0
        self.num_splits = 0
        # one solver for the whole run: its preamble (thread bounds and
        # launch assumptions) never changes, so the SAT layer blasts it
        # once
        self._feas_solver = Solver(
            [*self.env.bounds(), *config.assumptions],
            conflict_budget=3_000)
        self._feas_cache: Dict[int, bool] = {}
        self.result = ExecutionResult(
            kernel=kernel.name, mode=mode, config=config, env=self.env,
            objects=list(self.objects.values()),
            feasibility=self._feas_solver.stats)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _symbolic_param_names(self) -> Set[str]:
        if self.config.symbolic_inputs is not None:
            return set(self.config.symbolic_inputs)
        return set()  # caller (SESA driver) passes the taint result

    def _setup_objects(self) -> None:
        symbolic = self._symbolic_param_names()
        for gv in self.module.globals.values():
            elem = gv.storage_type
            while isinstance(elem, ir.ArrayType):
                elem = elem.elem
            obj = MemoryObject(
                name=gv.name, space=gv.space, size_bytes=gv.size_bytes,
                elem_width=width_of(elem))
            self.objects[id(gv)] = obj
        for arg in self.kernel.args:
            if isinstance(arg.type, ir.PointerType):
                elem_width = width_of(arg.type.pointee)
                count = self.config.array_sizes.get(
                    arg.name, self.config.default_array_size())
                obj = MemoryObject(
                    name=arg.name, space=ir.MemSpace.GLOBAL,
                    size_bytes=count * max(1, elem_width // 8),
                    elem_width=elem_width,
                    is_symbolic_input=arg.name in symbolic,
                    concrete_values=self.config.array_values.get(arg.name))
                self.objects[id(arg)] = obj
                self.arg_values[id(arg)] = Pointer(obj, mk_bv(0, 32))
            else:
                width = width_of(arg.type)
                if arg.name in symbolic:
                    self.arg_values[id(arg)] = mk_bv_var(arg.name, width)
                else:
                    self.arg_values[id(arg)] = mk_bv(
                        self.config.default_scalar(arg.name), width)

    def _classify_branches(self) -> Dict[int, bool]:
        """br id → True when its diamond can be merged (no barrier/ret/loop
        between the branch and its immediate post-dominator)."""
        out: Dict[int, bool] = {}
        back_edges = {(id(t), id(h)) for t, h in self.cfg.back_edges()}
        for block in self.kernel.blocks:
            term = block.terminator
            if not isinstance(term, ir.Br):
                continue
            ipdom = self.ipostdom.get(block)
            if ipdom is None:
                out[id(term)] = False
                continue
            region = self._region_blocks(block, ipdom)
            ok = True
            for rb in region:
                for instr in rb.instrs:
                    if isinstance(instr, (ir.Sync, ir.Ret)):
                        ok = False
                for succ in rb.successors():
                    if (id(rb), id(succ)) in back_edges:
                        ok = False
            # a back edge from the branch block itself (do-while)
            for succ in block.successors():
                if (id(block), id(succ)) in back_edges:
                    ok = False
            out[id(term)] = ok
        return out

    def _region_blocks(self, block: ir.BasicBlock,
                       ipdom: ir.BasicBlock) -> List[ir.BasicBlock]:
        seen: Set[int] = {id(ipdom)}
        out: List[ir.BasicBlock] = []
        stack = list(block.successors())
        while stack:
            b = stack.pop()
            if id(b) in seen:
                continue
            seen.add(id(b))
            out.append(b)
            stack.extend(b.successors())
        return out

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> ExecutionResult:
        started = time.perf_counter()
        self._deadline = None
        if self.config.time_budget_seconds is not None:
            self._deadline = time.monotonic() + \
                self.config.time_budget_seconds
        initial = FlowState(TRUE)
        initial.block = self.kernel.entry
        flows: List[FlowState] = [initial]
        try:
            while True:
                pending = [f for f in flows
                           if not f.finished and not f.at_barrier]
                if not pending:
                    # a synchronisation round: all flows at barrier or done
                    self._close_barrier_interval(flows)
                    alive = [f for f in flows if not f.finished]
                    if not alive:
                        break
                    for f in alive:
                        f.at_barrier = False
                        f.bi_accesses = AccessSet()
                        f.bi_index += 1
                    continue
                flow = pending[0]
                outcome = self._run_flow(flow)
                if isinstance(outcome, list):       # split
                    flows.remove(flow)
                    flows.extend(outcome)
                    self.num_splits += 1
                    for child in outcome:
                        if child.flow_id != flow.flow_id:
                            self.result.flow_events.append(
                                (flow.flow_id, child.flow_id,
                                 child.flow_cond))
                    if len(flows) > self.config.max_flows:
                        raise BudgetExhausted(
                            f"flow budget exceeded ({len(flows)})")
                self.result.max_flows = max(self.result.max_flows,
                                            len(flows))
        except BudgetExhausted as exc:
            self.result.timed_out = True
            self.result.warnings.append(str(exc))
            self._close_barrier_interval(flows)  # keep partial access sets
        self.result.steps = self.steps
        self.result.num_splits = self.num_splits
        self.result.final_flow_conds = [f.flow_cond for f in flows]
        for f in flows:
            for w in f.warnings:
                if w not in self.result.warnings:
                    self.result.warnings.append(w)
        self.result.elapsed_seconds = time.perf_counter() - started
        return self.result

    def _close_barrier_interval(self, flows: List[FlowState]) -> None:
        union = AccessSet()
        for f in flows:
            union.extend(f.bi_accesses)
            # zero after absorbing: finished flows stay in the list and
            # are re-visited by later barrier closes
            self.result.dedup_skipped += f.bi_accesses.dedup_skipped
            f.bi_accesses.dedup_skipped = 0
        if self.config.pair_pruning:
            union, collapsed = summarize_access_set(union)
            self.result.summarized_accesses += collapsed
        self.result.bi_access_sets.append(union)
        self.result.num_barriers += 1
        at_barrier = [f for f in flows if f.at_barrier]
        finished = [f for f in flows if f.finished]
        if at_barrier and finished:
            self.result.errors.append(
                "barrier divergence: some threads reach __syncthreads() "
                "while others have exited the kernel")

    # ------------------------------------------------------------------
    # flow execution until barrier / return / split
    # ------------------------------------------------------------------

    def _run_flow(self, flow: FlowState):
        block = flow.block
        idx = getattr(flow, "instr_index", 0)
        pending_resolver = getattr(flow, "pending_resolver", None)
        flow.pending_resolver = None

        while True:
            assert block is not None
            instrs = block.instrs
            if idx == 0:
                phis = block.phis()
                if pending_resolver is not None:
                    for phi in phis:
                        flow.set_reg(phi.result, pending_resolver(phi))
                    pending_resolver = None
                else:
                    for phi in phis:
                        flow.set_reg(
                            phi.result,
                            self._phi_incoming(flow, phi, flow.came_from))
                idx = len(phis)
            while idx < len(instrs):
                instr = instrs[idx]
                self._tick()
                if isinstance(instr, ir.Sync):
                    flow.at_barrier = True
                    flow.block = block
                    flow.instr_index = idx + 1
                    return "barrier"
                if isinstance(instr, ir.Ret):
                    flow.finished = True
                    return "finished"
                if isinstance(instr, ir.Jump):
                    flow.came_from = block
                    block = instr.target
                    idx = 0
                    break
                if isinstance(instr, ir.Br):
                    cond = self._as_cond(self._eval(flow, instr.cond))
                    if cond is TRUE:
                        flow.came_from = block
                        block, idx = instr.then_block, 0
                        break
                    if cond is FALSE:
                        flow.came_from = block
                        block, idx = instr.else_block, 0
                        break
                    if self.mode == "sesa" and self.mergeable.get(id(instr)):
                        resolver = self._merge_arms(flow, block, instr,
                                                    cond, TRUE)
                        target = self.ipostdom[block]
                        assert target is not None
                        flow.came_from = None
                        block, idx = target, 0
                        pending_resolver = resolver
                        break
                    return self._split_flow(flow, block, instr, cond, idx)
                self._exec(flow, instr, TRUE)
                idx += 1
            else:
                # ran past the last instruction without a terminator
                raise ExecutionError(
                    f"block {block.name} ended without terminator")
            if pending_resolver is not None and idx == 0:
                continue  # handled at top of loop

    def _split_flow(self, flow: FlowState, block: ir.BasicBlock,
                    br: ir.Br, cond: Term, idx: int) -> List[FlowState]:
        """Parametric flow split (GKLEEp semantics / structural divergence)."""
        is_loop = bool(br.meta.get("loop_branch"))
        if is_loop and flow.split_depth >= self.config.max_loop_splits:
            flow.warn(
                f"loop at line {br.loc} exceeded {self.config.max_loop_splits}"
                " symbolic iterations; forcing exit (bounded unrolling)")
            exit_block = self._loop_exit_successor(block, br)
            flow.came_from = block
            flow.block = exit_block
            flow.instr_index = 0
            return [flow]
        then_flow, else_flow = flow.split(cond, mk_not(cond))
        children = []
        for child, target in ((then_flow, br.then_block),
                              (else_flow, br.else_block)):
            if child.flow_cond is FALSE:
                continue
            if not self._feasible(child.flow_cond):
                continue
            child.came_from = block
            child.block = target
            child.instr_index = 0
            children.append(child)
        if not children:
            # both sides infeasible can only mean the flow itself is dead
            flow.finished = True
            return [flow]
        return children

    def _loop_exit_successor(self, block: ir.BasicBlock,
                             br: ir.Br) -> ir.BasicBlock:
        for loop in self.cfg.natural_loops():
            if loop.contains(block):
                for succ in br.successors():
                    if not loop.contains(succ):
                        return succ
        return br.else_block

    def _feasible(self, cond: Term) -> bool:
        key = id(cond)
        hit = self._feas_cache.get(key)
        if hit is not None:
            return hit
        verdict = self._feas_solver.check([cond]) != CheckResult.UNSAT
        self._feas_cache[key] = verdict
        return verdict

    # ------------------------------------------------------------------
    # merged (flow-combined) diamond execution
    # ------------------------------------------------------------------

    def _merge_arms(self, flow: FlowState, block: ir.BasicBlock,
                    br: ir.Br, cond: Term, guard: Term
                    ) -> Callable[[ir.Phi], SymValue]:
        ipdom = self.ipostdom[block]
        assert ipdom is not None
        g_then = mk_and(guard, cond)
        g_else = mk_and(guard, mk_not(cond))

        if br.then_block is ipdom:
            res_then = self._direct_resolver(flow, block)
        else:
            res_then = self._run_segment(flow, br.then_block, block,
                                         ipdom, g_then)
        if br.else_block is ipdom:
            res_else = self._direct_resolver(flow, block)
        else:
            res_else = self._run_segment(flow, br.else_block, block,
                                         ipdom, g_else)

        combining = (self.config.flow_combining
                     and self.sink_value_ids is not None)
        sink_ids = self.sink_value_ids or set()

        def resolver(phi: ir.Phi) -> SymValue:
            v_then = res_then(phi)
            v_else = res_else(phi)
            if combining and id(phi.result) not in sink_ids:
                # §V Ex. 2: merged values that feed no sensitive sink can
                # be represented by either side ("undef" in the paper)
                return v_then
            return self._merge_values(flow, cond, v_then, v_else)
        return resolver

    def _direct_resolver(self, flow: FlowState, pred: ir.BasicBlock
                         ) -> Callable[[ir.Phi], SymValue]:
        def resolver(phi: ir.Phi) -> SymValue:
            return self._phi_incoming(flow, phi, pred)
        return resolver

    def _merge_values(self, flow: FlowState, cond: Term, v_then: SymValue,
                      v_else: SymValue) -> SymValue:
        if isinstance(v_then, Pointer) or isinstance(v_else, Pointer):
            if (isinstance(v_then, Pointer) and isinstance(v_else, Pointer)
                    and v_then.obj is v_else.obj):
                return Pointer(v_then.obj,
                               mk_ite(cond, v_then.offset, v_else.offset))
            flow.warn("merged pointers to different objects; keeping the "
                      "then-side value (may under-approximate)")
            return v_then
        if isinstance(v_then, Term) and isinstance(v_else, Term):
            if v_then.sort != v_else.sort:
                return v_then
            return mk_ite(cond, v_then, v_else)
        return v_then

    def _run_segment(self, flow: FlowState, entry: ir.BasicBlock,
                     pred: Optional[ir.BasicBlock], stop: ir.BasicBlock,
                     guard: Term) -> Callable[[ir.Phi], SymValue]:
        """Execute from ``entry`` until reaching ``stop`` under ``guard``.

        Returns a resolver giving, for each phi of ``stop``, the value as
        seen along this path. The branch classification guarantees the
        segment contains no barrier, return, or loop.
        """
        block = entry
        prev: Optional[ir.BasicBlock] = pred
        resolver_in: Optional[Callable] = None
        hops = 0
        while block is not stop:
            hops += 1
            if hops > 4 * len(self.kernel.blocks):
                raise ExecutionError(
                    "divergent region failed to reconverge "
                    f"(started at {entry.name})")
            phis = block.phis()
            if resolver_in is not None:
                for phi in phis:
                    flow.set_reg(phi.result, resolver_in(phi))
                resolver_in = None
            else:
                for phi in phis:
                    flow.set_reg(phi.result,
                                 self._phi_incoming(flow, phi, prev))
            term: Optional[ir.Instruction] = None
            for instr in block.instrs[len(phis):]:
                self._tick()
                if isinstance(instr, (ir.Sync, ir.Ret)):
                    raise ExecutionError(
                        "barrier/return inside a merged region "
                        "(classification bug)")
                if instr.is_terminator():
                    term = instr
                    break
                self._exec(flow, instr, guard)
            if isinstance(term, ir.Jump):
                prev, block = block, term.target
            elif isinstance(term, ir.Br):
                cond = self._as_cond(self._eval(flow, term.cond))
                if cond is TRUE:
                    prev, block = block, term.then_block
                elif cond is FALSE:
                    prev, block = block, term.else_block
                else:
                    inner = self._merge_arms(flow, block, term, cond,
                                             guard)
                    target = self.ipostdom[block]
                    assert target is not None
                    if target is stop:
                        return inner
                    resolver_in = inner
                    prev, block = None, target
            else:
                raise ExecutionError(f"block {block.name} lacks terminator")
        if resolver_in is not None:
            return resolver_in
        final_pred = prev

        def resolver(phi: ir.Phi) -> SymValue:
            return self._phi_incoming(flow, phi, final_pred)
        return resolver

    def _phi_incoming(self, flow: FlowState, phi: ir.Phi,
                      pred: Optional[ir.BasicBlock]) -> SymValue:
        for block, value in phi.incoming:
            if block is pred:
                return self._eval(flow, value)
        raise ExecutionError(
            f"phi {phi!r} has no incoming for predecessor "
            f"{pred.name if pred else None}")

    # ------------------------------------------------------------------
    # instruction semantics
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.config.max_steps:
            raise BudgetExhausted(f"step budget exceeded ({self.steps})")
        if self._deadline is not None and (self.steps & 0xFF) == 0 \
                and time.monotonic() > self._deadline:
            raise BudgetExhausted("wall-clock budget exceeded")

    def _eval(self, flow: FlowState, value: ir.Value) -> SymValue:
        if isinstance(value, ir.Constant):
            if isinstance(value.type, ir.IntType) and value.type.width == 1:
                return mk_bool(bool(value.value))
            return mk_bv(value.value, width_of(value.type))
        if isinstance(value, ir.Register):
            return flow.get_reg(value)
        if isinstance(value, ir.Argument):
            return self.arg_values[id(value)]
        if isinstance(value, ir.GlobalVariable):
            return Pointer(self.objects[id(value)], mk_bv(0, 32))
        if isinstance(value, ir.BuiltinValue):
            return self.env.lookup(value.name)
        raise ExecutionError(f"cannot evaluate {value!r}")

    @staticmethod
    def _as_cond(value: SymValue) -> Term:
        if isinstance(value, Term) and value.sort is BOOL:
            return value
        if isinstance(value, Term):
            return mk_ne(value, mk_bv(0, value.width))
        raise ExecutionError("pointer used as branch condition")

    def _exec(self, flow: FlowState, instr: ir.Instruction,
              guard: Term) -> None:
        if isinstance(instr, ir.BinOp):
            flow.set_reg(instr.result, self._exec_binop(flow, instr))
        elif isinstance(instr, ir.ICmp):
            flow.set_reg(instr.result, self._exec_icmp(flow, instr))
        elif isinstance(instr, ir.FCmp):
            a = self._eval(flow, instr.ops[0])
            b = self._eval(flow, instr.ops[1])
            raw = mk_uf(f"fcmp:{instr.pred}", (a, b), 1)
            flow.set_reg(instr.result, mk_eq(raw, mk_bv(1, 1)))
        elif isinstance(instr, ir.Select):
            cond = self._as_cond(self._eval(flow, instr.ops[0]))
            then = self._eval(flow, instr.ops[1])
            other = self._eval(flow, instr.ops[2])
            if cond is TRUE:
                flow.set_reg(instr.result, then)
            elif cond is FALSE:
                flow.set_reg(instr.result, other)
            else:
                flow.set_reg(instr.result,
                             self._merge_values(flow, cond, then, other))
        elif isinstance(instr, ir.Cast):
            flow.set_reg(instr.result, self._exec_cast(flow, instr))
        elif isinstance(instr, ir.Alloca):
            obj = self._local_objs.get(id(instr))
            if obj is None:
                size = instr.allocated_type.size_bytes() * instr.count
                obj = MemoryObject(name=f"%{instr.result.name}",
                                   space=ir.MemSpace.LOCAL, size_bytes=size,
                                   elem_width=min(
                                       64, instr.allocated_type.size_bytes()
                                       * 8))
                self._local_objs[id(instr)] = obj
            flow.local.allocate(id(obj), obj.size_bytes or 0)
            flow.set_reg(instr.result, Pointer(obj, mk_bv(0, 32)))
        elif isinstance(instr, ir.GEP):
            base = self._eval(flow, instr.base)
            if not isinstance(base, Pointer):
                raise ExecutionError("GEP base is not a pointer")
            index = self._eval(flow, instr.index)
            if not isinstance(index, Term):
                raise ExecutionError("GEP index is not an integer")
            flow.set_reg(instr.result,
                         base.advanced(index, instr.elem_size()))
        elif isinstance(instr, ir.Load):
            flow.set_reg(instr.result, self._exec_load(flow, instr, guard))
        elif isinstance(instr, ir.Store):
            self._exec_store(flow, instr, guard)
        elif isinstance(instr, (ir.AtomicRMW, ir.AtomicCAS)):
            self._exec_atomic(flow, instr, guard)
        elif isinstance(instr, ir.Call):
            self._exec_call(flow, instr, guard)
        elif isinstance(instr, ir.Phi):
            raise ExecutionError("phi outside block entry")
        else:
            raise ExecutionError(f"unsupported instruction {instr!r}")

    def _exec_binop(self, flow: FlowState, instr: ir.BinOp) -> SymValue:
        a = self._eval(flow, instr.lhs)
        b = self._eval(flow, instr.rhs)
        op = instr.op
        if op in ir.FLOAT_BINOPS:
            assert isinstance(a, Term) and isinstance(b, Term)
            return mk_uf(f"f:{op}", (a, b), a.width)
        assert isinstance(a, Term) and isinstance(b, Term)
        if a.sort is BOOL or b.sort is BOOL:
            # i1 arithmetic (boolean connectives from the front-end)
            a_b = a if a.sort is BOOL else mk_ne(a, mk_bv(0, a.width))
            b_b = b if b.sort is BOOL else mk_ne(b, mk_bv(0, b.width))
            if op == "xor":
                return mk_bxor(a_b, b_b)
            if op in _BOOL_BINOP:
                return _BOOL_BINOP[op](a_b, b_b)
            raise ExecutionError(f"boolean operands for {op}")
        if a.width != b.width:
            b = fit_width(b, a.width)
        return _INT_BINOP[op](a, b)

    def _exec_icmp(self, flow: FlowState, instr: ir.ICmp) -> Term:
        a = self._eval(flow, instr.lhs)
        b = self._eval(flow, instr.rhs)
        if isinstance(a, Pointer) or isinstance(b, Pointer):
            if isinstance(a, Pointer) and isinstance(b, Pointer):
                same = mk_eq(a.offset, b.offset) if a.obj is b.obj else FALSE
                if instr.pred == "eq":
                    return same
                if instr.pred == "ne":
                    return mk_not(same)
                if a.obj is b.obj:
                    return _ICMP[instr.pred](a.offset, b.offset)
            raise ExecutionError(
                f"unsupported pointer comparison {instr.pred}")
        assert isinstance(a, Term) and isinstance(b, Term)
        if a.sort is BOOL and b.sort is BOOL:
            result = mk_eq(a, b)
            return result if instr.pred == "eq" else mk_not(result)
        if a.width != b.width:
            b = fit_width(b, a.width)
        return _ICMP[instr.pred](a, b)

    def _exec_cast(self, flow: FlowState, instr: ir.Cast) -> SymValue:
        value = self._eval(flow, instr.value)
        target_width = width_of(instr.result.type) \
            if not instr.result.type.is_pointer() else 64
        kind = instr.kind
        if isinstance(value, Pointer):
            if kind == "bitcast":
                return value
            raise ExecutionError(f"cast {kind} on pointer")
        assert isinstance(value, Term)
        if value.sort is BOOL:
            if kind in ("zext", "sext", "bitcast"):
                return mk_ite(value, mk_bv(1, target_width),
                              mk_bv(0, target_width))
            raise ExecutionError(f"cast {kind} on i1")
        if kind == "zext":
            return mk_zext(value, target_width)
        if kind == "sext":
            return mk_sext(value, target_width)
        if kind == "trunc":
            if target_width == 1 and isinstance(instr.result.type,
                                                ir.IntType):
                return mk_eq(mk_extract(value, 0, 0), mk_bv(1, 1))
            return mk_extract(value, target_width - 1, 0)
        if kind == "bitcast":
            return value
        # float<->int conversions are opaque (see DESIGN.md)
        return mk_uf(f"cast:{kind}", (value,), target_width)

    # -- memory ----------------------------------------------------------

    def _access_cond(self, flow: FlowState, guard: Term) -> Term:
        return mk_and(flow.flow_cond, guard)

    def _exec_load(self, flow: FlowState, instr: ir.Load,
                   guard: Term) -> SymValue:
        ptr = self._eval(flow, instr.pointer)
        if not isinstance(ptr, Pointer):
            raise ExecutionError("load from non-pointer")
        width = width_of(instr.result.type)
        if ptr.obj.space == ir.MemSpace.LOCAL:
            return flow.local.load(id(ptr.obj), ptr.offset, width)
        flow.record(Access(
            kind=AccessKind.READ, obj=ptr.obj, offset=ptr.offset,
            size=max(1, width // 8), cond=self._access_cond(flow, guard),
            flow_id=flow.flow_id, bi_index=flow.bi_index,
            instr_id=id(instr), loc=instr.loc))
        value, resolved = flow.log_for(ptr.obj).resolve_read(
            ptr.offset, width)
        if not resolved:
            flow.warn(f"read of {ptr.obj.name} could observe other "
                      "threads' writes; value havocked")
        return value

    def _exec_store(self, flow: FlowState, instr: ir.Store,
                    guard: Term) -> None:
        ptr = self._eval(flow, instr.pointer)
        if not isinstance(ptr, Pointer):
            raise ExecutionError("store to non-pointer")
        value = self._eval(flow, instr.value)
        if isinstance(value, Pointer):
            flow.warn("storing a pointer to memory is not tracked")
            value = make_havoc(64, "ptr-store")
        if isinstance(value, Term) and value.sort is BOOL:
            value = mk_ite(value, mk_bv(1, 8), mk_bv(0, 8))
            width = 8
        else:
            width = width_of(instr.value.type) \
                if not instr.value.type.is_pointer() else 64
        if ptr.obj.space == ir.MemSpace.LOCAL:
            flow.local.store(id(ptr.obj), ptr.offset, value, guard)
            return
        cond = self._access_cond(flow, guard)
        flow.record(Access(
            kind=AccessKind.WRITE, obj=ptr.obj, offset=ptr.offset,
            size=max(1, width // 8), cond=cond, flow_id=flow.flow_id,
            bi_index=flow.bi_index, instr_id=id(instr), loc=instr.loc,
            value=value))
        flow.log_for(ptr.obj).append(WriteRecord(
            guard=guard, offset=ptr.offset, value=value, width=width,
            instr_id=id(instr)))

    def _exec_atomic(self, flow: FlowState, instr, guard: Term) -> None:
        ptr = self._eval(flow, instr.pointer)
        if not isinstance(ptr, Pointer):
            raise ExecutionError("atomic on non-pointer")
        width = width_of(instr.result.type)
        cond = self._access_cond(flow, guard)
        value_op = instr.ops[1] if isinstance(instr, ir.AtomicRMW) \
            else instr.ops[2]
        value = self._eval(flow, value_op)
        if isinstance(value, Pointer):
            value = make_havoc(width, "atomic-ptr")
        flow.record(Access(
            kind=AccessKind.ATOMIC, obj=ptr.obj, offset=ptr.offset,
            size=max(1, width // 8), cond=cond, flow_id=flow.flow_id,
            bi_index=flow.bi_index, instr_id=id(instr), loc=instr.loc,
            value=value if isinstance(value, Term) else None))
        flow.log_for(ptr.obj).append(WriteRecord(
            guard=guard, offset=ptr.offset,
            value=make_havoc(width, f"atomic:{ptr.obj.name}"), width=width,
            instr_id=id(instr), atomic=True))
        # CUDA atomics return the previous value, unknowable parametrically
        flow.set_reg(instr.result, make_havoc(width, "atomic-old"))

    def _exec_call(self, flow: FlowState, instr: ir.Call,
                   guard: Term = TRUE) -> None:
        args = [self._eval(flow, a) for a in instr.ops]
        if instr.callee in ("__assert",):
            claim = self._as_cond(args[0])
            reached = mk_and(flow.flow_cond, guard)
            self.result.assertions.append((reached, claim, instr.loc))
            return
        if instr.result is not None:
            terms = tuple(a for a in args if isinstance(a, Term))
            width = width_of(instr.result.type)
            flow.set_reg(instr.result,
                         mk_uf(f"call:{instr.callee}", terms, width))
