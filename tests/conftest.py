import pytest

from axicyl.elliptic import EllipticSolver, TridiagBatch


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
