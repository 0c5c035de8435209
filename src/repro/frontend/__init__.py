"""MiniCUDA front-end: lexer, parser, and IR code generation.

Replaces the Clang-3.2 front-end of the original SESA (see DESIGN.md for
the substitution rationale).
"""
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse
from .sema import SemaError, const_eval, resolve_type
from .codegen import CodeGen, CodeGenError, compile_source

#: a source that does not compile: an input error, not an analysis error
SOURCE_ERRORS = (LexError, ParseError, SemaError)

__all__ = [
    "SOURCE_ERRORS",
    "LexError", "Token", "tokenize", "ParseError", "parse", "SemaError",
    "const_eval", "resolve_type", "CodeGen", "CodeGenError",
    "compile_source",
]
