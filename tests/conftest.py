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


def _one_shot_solve(self, goal, preamble, *_session_key):
    """Reference ``_solve`` for :class:`RaceChecker` and
    :class:`StreamChecker`: the whole ``preamble AND goal`` conjunction
    on a fresh :class:`~repro.smt.Solver` — no session, no memo."""
    from repro.smt import CheckResult, Solver, mk_and
    self.stats.queries += 1
    solver = Solver(conflict_budget=self.solver_budget,
                    deadline=self._deadline)
    solver.add(mk_and(*preamble, *goal))
    outcome = solver.check()
    if outcome == CheckResult.SAT:
        return solver.model()
    if outcome == CheckResult.UNKNOWN:
        self.timed_out = True
    return None


@pytest.fixture
def one_shot_solving():
    """A context manager under which every race and stream-pair query
    is solved one-shot (see :func:`_one_shot_solve`), the differential
    reference for the shipped session path."""
    from repro.streams import StreamChecker
    from repro.sym.races import RaceChecker

    @contextlib.contextmanager
    def patched():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RaceChecker, "_solve", _one_shot_solve)
            mp.setattr(StreamChecker, "_solve", _one_shot_solve)
            yield

    return patched
