"""Every entry point the end-to-end tracer patches still exists.

``benchmarks/e2e/tracer.py`` times each layer by wrapping the
``module:qualname`` entry points in its ``SPANS`` table. A refactor that
moves one of them (``RaceChecker.check``, ``StreamChecker.check``,
``run_static_tier``, ``SolverSession.check``, ...) breaks the benchmark;
this test makes it fail the ordinary test run too. The tracer module is
loaded by path and only read.
"""
import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / \
    "benchmarks" / "e2e" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


ENTRY_POINTS = sorted({target for targets in _spans().values()
                       for target in targets})


def test_spans_name_entry_points():
    assert len(ENTRY_POINTS) >= 18


@pytest.mark.parametrize("target", ENTRY_POINTS)
def test_entry_point_resolves(target):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        # the tracer patches the attribute on the class itself, so an
        # inherited method does not count
        assert attr in vars(owner), f"{target} is not defined on {owner}"
        assert callable(vars(owner)[attr])
    else:
        assert inspect.isfunction(getattr(module, attr)), target
