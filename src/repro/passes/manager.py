"""Pass manager: runs IR passes in order and records what ran.

The standard SESA pipeline (mirroring §V) is ``standard_pipeline``:
front-end inlining already happened, so the IR passes are CFG cleanup
and mem2reg (SSA construction).
"""
from __future__ import annotations

from typing import Callable, List, Optional

from ..ir import Function, Module


class PassManager:
    """Runs registered passes over every kernel of a module."""
    def __init__(self) -> None:
        self.passes: List[Callable[[Function], object]] = []
        self.log: List[str] = []

    def add(self, pass_fn: Callable[[Function], object]) -> "PassManager":
        self.passes.append(pass_fn)
        return self

    def run(self, module: Module) -> None:
        for fn in module.kernels():
            for pass_fn in self.passes:
                pass_fn(fn)
                self.log.append(f"{pass_fn.__name__}:{fn.name}")


def remove_unreachable_blocks(fn: Function) -> int:
    """Drop blocks not reachable from the entry (codegen leaves a few
    behind after ``return``/``break``). Returns the number removed."""
    reachable = set()
    stack = [fn.entry]
    while stack:
        block = stack.pop()
        if id(block) in reachable:
            continue
        reachable.add(id(block))
        stack.extend(block.successors())
    removed = [b for b in fn.blocks if id(b) not in reachable]
    fn.blocks = [b for b in fn.blocks if id(b) in reachable]
    # drop phi incomings from removed predecessors
    removed_ids = {id(b) for b in removed}
    for block in fn.blocks:
        for phi in block.phis():
            phi.incoming = [(b, v) for b, v in phi.incoming
                            if id(b) not in removed_ids]
    return len(removed)


def standard_pipeline() -> PassManager:
    """The SESA IR pipeline: CFG cleanup then mem2reg."""
    from .mem2reg import mem2reg
    pm = PassManager()
    pm.add(remove_unreachable_blocks)
    pm.add(mem2reg)
    return pm


def compile_module(source: str) -> Module:
    """Compile MiniCUDA *source* and run the standard pipeline: a fresh
    module that the caller owns and may rewrite."""
    from ..frontend import compile_source
    module = compile_source(source)
    standard_pipeline().run(module)
    return module
