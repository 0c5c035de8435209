"""LLVM-like typed IR implementing the paper's Fig. 3 bytecode."""
from .types import (
    ArrayType, F32, F64, FloatType, FunctionType, I1, I8, I16, I32, I64,
    IntType, MemSpace, PointerType, Type, U8, U16, U32, U64, VOID, VoidType,
    ptr,
)
from .values import (
    Argument, BuiltinValue, Constant, GlobalVariable, Register, Value,
)
from .instrs import (
    ATOMIC_OPS, CAST_KINDS, FCMP_PREDS, FLOAT_BINOPS, GEP, ICMP_PREDS,
    INT_BINOPS, Alloca, AtomicCAS, AtomicRMW, BinOp, Br, Call, Cast, FCmp,
    ICmp, Instruction, Jump, Load, Phi, Ret, Select, Store, Sync,
)
from .loc import SourceLoc
from .module import BasicBlock, Function, Module
from .builder import IRBuilder
from .cfg import CFG, Loop
from .printer import function_to_str, instruction_locs, module_to_str
from .parser import IRParseError, parse_module, parse_type

__all__ = [
    "ArrayType", "F32", "F64", "FloatType", "FunctionType", "I1", "I8",
    "I16", "I32", "I64", "IntType", "MemSpace", "PointerType", "Type",
    "U8", "U16", "U32", "U64", "VOID", "VoidType", "ptr",
    "Argument", "BuiltinValue", "Constant", "GlobalVariable", "Register",
    "Value", "ATOMIC_OPS", "CAST_KINDS", "FCMP_PREDS", "FLOAT_BINOPS",
    "GEP", "ICMP_PREDS", "INT_BINOPS", "Alloca", "AtomicCAS", "AtomicRMW",
    "BinOp", "Br", "Call", "Cast", "FCmp", "ICmp", "Instruction", "Jump",
    "Load", "Phi", "Ret", "Select", "Store", "Sync", "SourceLoc",
    "BasicBlock",
    "Function", "Module", "IRBuilder", "CFG", "Loop", "function_to_str",
    "instruction_locs", "module_to_str", "IRParseError", "parse_module",
    "parse_type",
]
