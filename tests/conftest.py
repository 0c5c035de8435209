import contextlib

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (full paper-scale configurations)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full paper-scale run (minutes); needs --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def _one_shot_solve(self, goal, preamble):
    """Reference for the shared pair-discharge ``_solve``: the whole
    ``preamble AND goal`` conjunction as the goal of a fresh
    :class:`~repro.smt.Solver` with an empty preamble — no shared SAT
    instance, no template cache, no memo."""
    from repro.smt import CheckResult, Solver, mk_and
    self.stats.queries += 1
    solver = Solver([], conflict_budget=self.solver_budget,
                    deadline=self._deadline, templates=None)
    outcome = solver.check([mk_and(*preamble, *goal)])
    if outcome == CheckResult.SAT:
        return solver.model()
    if outcome == CheckResult.UNKNOWN:
        self.timed_out = True
    return None


@pytest.fixture
def one_shot_solving():
    """A context manager under which every race and stream-pair query
    is solved one-shot (see :func:`_one_shot_solve`), the differential
    reference for the shipped session path. Both checkers answer their
    queries through the one :meth:`PairDischarge._solve`, so patching
    it covers both."""
    from repro.sym.pairs import PairDischarge

    @contextlib.contextmanager
    def patched():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PairDischarge, "_solve", _one_shot_solve)
            yield

    return patched
