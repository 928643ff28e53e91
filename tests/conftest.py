"""Shared test settings and fixtures.

Every `hypothesis` property runs the same examples on each run (derandomized,
no example database) and has no per-example deadline; each test sets its own
`max_examples`."""
import pytest
from hypothesis import settings

import cfeas.solver

settings.register_profile("cfeas", derandomize=True, database=None, deadline=None)
settings.load_profile("cfeas")


@pytest.fixture
def solve_recording(monkeypatch):
    """`solve` that also returns the run's iterates, z0 first, as copies.

    It wraps the solver's `stopping_gap`, which sees every iterate exactly
    once, z0 included: a run that converges or hits its cap records
    iterations + 1 points."""
    zs = []
    stopping_gap = cfeas.solver.stopping_gap

    def recording_gap(pair, z, px=None):
        zs.append(z.copy())
        return stopping_gap(pair, z, px)

    monkeypatch.setattr(cfeas.solver, "stopping_gap", recording_gap)

    def run(pair, cfg):
        zs.clear()
        return cfeas.solver.solve(pair, cfg), list(zs)

    return run
