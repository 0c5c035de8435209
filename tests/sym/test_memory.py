"""Memory model tests: write logs, read resolution, havoc tagging."""
import pytest

from repro import ir
from repro.smt import TRUE, mk_bv, mk_bv_var, evaluate
from repro.sym.memory import (
    LocalMemory, MemoryObject, ObjectLog, WriteRecord, contains_havoc,
    contains_uf, is_havoc_term, make_havoc,
)


def obj(space=ir.MemSpace.SHARED, size=256, symbolic=False, values=None):
    return MemoryObject(name="m", space=space, size_bytes=size,
                        elem_width=32, is_symbolic_input=symbolic,
                        concrete_values=values)


def wr(offset, value, guard=TRUE, width=32, instr=0, atomic=False):
    return WriteRecord(guard=guard, offset=offset, value=value,
                       width=width, instr_id=instr, atomic=atomic)


class TestReadResolution:
    def test_read_own_write_same_offset(self):
        tid = mk_bv_var("tid.x")
        offset = tid * 4
        log = ObjectLog(obj())
        log.append(wr(offset, mk_bv(42, 32)))
        value, resolved = log.resolve_read(offset, 32)
        assert resolved
        assert value is mk_bv(42, 32)

    def test_read_unwritten_shared_is_uninit_symbol(self):
        log = ObjectLog(obj())
        value, resolved = log.resolve_read(mk_bv(0, 32), 32)
        assert resolved
        assert not is_havoc_term(value)  # uninit, not havoc

    def test_read_symbolic_input_array(self):
        log = ObjectLog(obj(space=ir.MemSpace.GLOBAL, symbolic=True))
        off = mk_bv_var("tid.x") * 4
        v1, _ = log.resolve_read(off, 32)
        v2, _ = log.resolve_read(off, 32)
        assert v1 is v2  # same cell, same symbol (functional consistency)
        other, _ = log.resolve_read(mk_bv(8, 32), 32)
        assert other is not v1

    def test_read_concrete_input_array(self):
        log = ObjectLog(obj(space=ir.MemSpace.GLOBAL,
                            values=[10, 20, 30]))
        value, resolved = log.resolve_read(mk_bv(4, 32), 32)
        assert resolved
        assert value is mk_bv(20, 32)  # element 1 (4-byte elements)

    def test_foreign_offset_write_havocs_read(self):
        tid = mk_bv_var("tid.x")
        log = ObjectLog(obj())
        log.append(wr(tid * 4, mk_bv(1, 32)))
        value, resolved = log.resolve_read((tid + 1) * 4, 32)
        assert not resolved
        assert is_havoc_term(value)

    def test_distinct_concrete_offsets_dont_interfere(self):
        log = ObjectLog(obj())
        log.append(wr(mk_bv(0, 32), mk_bv(5, 32)))
        log.append(wr(mk_bv(4, 32), mk_bv(7, 32)))
        value, resolved = log.resolve_read(mk_bv(4, 32), 32)
        assert resolved
        assert value is mk_bv(7, 32)

    def test_guarded_write_folds_ite(self):
        cond = mk_bv_var("tid.x") % 2 == mk_bv(0, 32)
        from repro.smt import mk_eq, mk_urem
        cond = mk_eq(mk_urem(mk_bv_var("tid.x"), mk_bv(2, 32)), mk_bv(0, 32))
        off = mk_bv(0, 32)
        log = ObjectLog(obj())
        log.append(wr(off, mk_bv(1, 32)))
        log.append(wr(off, mk_bv(2, 32), guard=cond))
        value, resolved = log.resolve_read(off, 32)
        assert resolved
        # tid even -> 2, else 1
        assert evaluate(value, {"tid.x": 2}) == 2
        assert evaluate(value, {"tid.x": 3}) == 1

    def test_atomic_write_havocs_read(self):
        off = mk_bv(0, 32)
        log = ObjectLog(obj())
        log.append(wr(off, mk_bv(1, 32), atomic=True))
        value, resolved = log.resolve_read(off, 32)
        assert not resolved
        assert is_havoc_term(value)

    def test_clone_isolates_children(self):
        log = ObjectLog(obj())
        log.append(wr(mk_bv(0, 32), mk_bv(1, 32)))
        child = log.clone()
        child.append(wr(mk_bv(0, 32), mk_bv(2, 32)))
        v_parent, _ = log.resolve_read(mk_bv(0, 32), 32)
        v_child, _ = child.resolve_read(mk_bv(0, 32), 32)
        assert v_parent is mk_bv(1, 32)
        assert v_child is mk_bv(2, 32)


class TestHavocTags:
    def test_havoc_terms_are_fresh(self):
        assert make_havoc(32, "x") is not make_havoc(32, "x")

    def test_contains_havoc_finds_nested(self):
        h = make_havoc(32, "test")
        composite = (h + mk_bv(1, 32)) * mk_bv_var("y")
        assert contains_havoc(composite)

    def test_plain_terms_have_no_havoc(self):
        t = mk_bv_var("x") + mk_bv(3, 32)
        assert not contains_havoc(t)

    def test_input_reads_are_uninterpreted_not_havoc(self):
        x = mk_bv_var("x")
        read = obj(symbolic=True).input_value_at(x, 32) + x
        assert contains_uf(read) and not contains_havoc(read)
        assert not contains_uf(x * mk_bv(3, 32))
        assert contains_uf(make_havoc(32, "test"))

    def test_deep_dag_is_walked_without_recursion(self):
        # the per-node memo fills bottom-up from an explicit stack
        t = make_havoc(32, "deep")
        for i in range(3000):
            t = t * mk_bv_var(f"v{i}")
        assert contains_havoc(t) and contains_uf(t)


class TestLocalMemory:
    def test_store_load_roundtrip(self):
        mem = LocalMemory()
        mem.allocate(1, 64)
        mem.store(1, mk_bv(8, 32), mk_bv(99, 32), TRUE)
        assert mem.load(1, mk_bv(8, 32), 32) is mk_bv(99, 32)

    def test_uninitialised_load_is_havoc(self):
        mem = LocalMemory()
        mem.allocate(1, 64)
        assert is_havoc_term(mem.load(1, mk_bv(0, 32), 32))

    def test_guarded_store_merges(self):
        from repro.smt import mk_bool_var
        mem = LocalMemory()
        mem.allocate(1, 64)
        mem.store(1, mk_bv(0, 32), mk_bv(1, 32), TRUE)
        cond = mk_bool_var("c")
        mem.store(1, mk_bv(0, 32), mk_bv(2, 32), cond)
        value = mem.load(1, mk_bv(0, 32), 32)
        assert evaluate(value, {"c": 1}) == 2
        assert evaluate(value, {"c": 0}) == 1

    def test_symbolic_offset_store_havocs_object(self):
        mem = LocalMemory()
        mem.allocate(1, 64)
        mem.store(1, mk_bv(0, 32), mk_bv(1, 32), TRUE)
        ok = mem.store(1, mk_bv_var("i"), mk_bv(2, 32), TRUE)
        assert not ok
        assert is_havoc_term(mem.load(1, mk_bv(0, 32), 32))

    def test_clone_is_deep(self):
        mem = LocalMemory()
        mem.allocate(1, 64)
        mem.store(1, mk_bv(0, 32), mk_bv(1, 32), TRUE)
        copy = mem.clone()
        copy.store(1, mk_bv(0, 32), mk_bv(2, 32), TRUE)
        assert mem.load(1, mk_bv(0, 32), 32) is mk_bv(1, 32)
