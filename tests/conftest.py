import pytest

from axicyl import evolution
from axicyl.elliptic import EllipticSolver, TridiagBatch
from axicyl.evolution import run_simulation
from axicyl.fields import make_initial_data


def run_config(cfg):
    """The recorded run_simulation of cfg's initial data on a solver of
    cfg.grid, as `axicyl run` starts it."""
    state = make_initial_data(EllipticSolver(cfg.grid), cfg)
    return run_simulation(cfg, state, records=True)


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts of EllipticSolver and TridiagBatch (factorization) constructions."""
    counts = {"solvers": 0, "factorizations": 0}

    def count(cls, key):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            counts[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    count(EllipticSolver, "solvers")
    count(TridiagBatch, "factorizations")
    return counts


@pytest.fixture
def ledger_calls(monkeypatch):
    """Calls of the budget ledger's per-step work, as evolution looks it up."""
    calls = {"dissipation_sample": 0, "boundary_leakage": 0}
    for name in calls:
        real = getattr(evolution, name)

        def counted(state, _name=name, _real=real):
            calls[_name] += 1
            return _real(state)

        monkeypatch.setattr(evolution, name, counted)
    return calls
