"""The solver's one cache: its byte bound holds at every store, across every kind of entry, beside what
the solves in flight hold."""

from collections import OrderedDict

import numpy as np
import pytest

from chebbvp import cache, clear_caches, piecewise_solve_diffmat, piecewise_solve_spectral, solve_bvp
from chebbvp.factored import BoundaryCondition, OperatorFactorization
from chebbvp.integration import FirstOrderOp, SecondOrderOp
from chebbvp.piecewise import PiecewiseGrid


class CheckedEntries(OrderedDict):
    """The cache's entries, checking the bound each time one is stored.

    The bound covers the entries and the builds still running, such as the basis whose build stores
    factorizations; ``building`` holds the bytes of those builds.
    """

    def __init__(self):
        super().__init__()
        self.building = []
        self.stores = self.over = self.peak = 0

    def __setitem__(self, slot, entry):
        super().__setitem__(slot, entry)
        total = sum(nbytes for _, nbytes in self.values())
        assert total == cache._total + entry[1]  # counted once it is stored
        if total + sum(self.building) > cache.CACHE_BYTES:
            # past the bound, only entries that a solve in flight holds are kept beside the one just built
            held = set().union(*cache._held.values())
            assert all(s in held for s in self if s != slot)
            self.over += 1
        self.stores += 1
        self.peak = max(self.peak, total)


@pytest.fixture
def checked(monkeypatch):
    clear_caches()
    entries = CheckedEntries()
    monkeypatch.setattr(cache, "_entries", entries)
    for kind in cache._kinds:

        def build(*key, kind=kind, build=kind._build):
            entries.building.append(kind._nbytes(*key))
            try:
                return build(*key)
            finally:
                entries.building.pop()

        monkeypatch.setattr(kind, "_build", build)
    yield entries
    clear_caches()
    assert not entries


def mixed_solves():
    """Single and piecewise solves on both backends, first- to fourth-order, at M = 16 to 8192."""
    D = BoundaryCondition.dirichlet
    d = BoundaryCondition.derivative
    second = OperatorFactorization(quadratic=(SecondOrderOp(0.0, -100.0),))
    fourth = OperatorFactorization(linear=(FirstOrderOp(5.0), FirstOrderOp(-5.0)), quadratic=(SecondOrderOp(1.0, 4.0),))
    for m in (16, 1024, 8192, 16):
        solve_bvp(OperatorFactorization(linear=(FirstOrderOp(m / 8.0),)), np.cos, [D(-1, 1.0)], m=m)
        solve_bvp(fourth, np.sin, [D(-1, 0.0), D(1, 1.0), d(-1, 1, 0.0), d(1, 1, 0.0)], m=m)
    grid = PiecewiseGrid(np.array([-1.0, -0.5, 0.25, 1.0]), (32, 64, 32))
    for solve in (piecewise_solve_spectral, piecewise_solve_diffmat):
        solve(second, np.cos, grid, [D(-1, 0.0), d(1, 1, 1.0)])


def test_bytes_stay_within_the_bound_beside_held_entries(checked, monkeypatch):
    # at 256 KiB the M = 8192 bases and factorizations are each over the bound
    monkeypatch.setattr(cache, "CACHE_BYTES", 256 << 10)
    mixed_solves()
    assert checked.stores > 0 and checked.over > 0
    total = sum(nbytes for _, nbytes in checked.values())
    assert total == cache._total == sum(kind.cache_info().nbytes for kind in cache._kinds)
    assert total <= cache.CACHE_BYTES and not cache._held  # the next miss after a solve evicts what it held


def test_bytes_stay_within_the_shipped_bound(checked):
    mixed_solves()
    assert checked.stores > 0 and checked.over == 0
    assert checked.peak <= cache.CACHE_BYTES
