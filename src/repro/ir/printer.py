"""Textual dump of modules/functions (diagnostics and golden tests)."""
from __future__ import annotations

from .module import Function, Module


def function_to_str(fn: Function) -> str:
    """Render one function as text (parser-compatible)."""
    lines = []
    kind = "kernel" if fn.is_kernel else "device"
    args = ", ".join(f"{a.type!r} %{a.name}" for a in fn.args)
    lines.append(f"{kind} {fn.type.ret!r} @{fn.name}({args}) {{")
    for block in fn.blocks:
        lines.append(f"{block.name}:")
        for instr in block.instrs:
            meta = ""
            if instr.meta:
                tags = ",".join(sorted(f"{k}" for k, v in instr.meta.items() if v))
                if tags:
                    meta = f"  ; [{tags}]"
            lines.append(f"  {instr!r}{meta}")
    lines.append("}")
    return "\n".join(lines)


def module_to_str(module: Module) -> str:
    """Render a whole module as text (parser-compatible)."""
    parts = [f"; module {module.name}"]
    for gv in module.globals.values():
        parts.append(f"{gv!r}")
    for fn in module.functions.values():
        parts.append(function_to_str(fn))
    return "\n\n".join(parts)


def instruction_locs(fn: Function) -> str:
    """Every instruction's source position as ``line:col``, in IR order.

    The printed IR carries no locations, so a content key that must
    move with the source (a verdict names source lines) adds this.
    An instruction without a location prints as ``-``.
    """
    return " ".join(
        "-" if instr.loc is None
        else f"{int(instr.loc)}:{getattr(instr.loc, 'col', 0)}"
        for block in fn.blocks for instr in block.instrs)
