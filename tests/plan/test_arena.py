"""WorkspaceArena: reservation, reuse, freeze discipline."""

import numpy as np
import pytest

from repro.config import DTYPE
from repro.errors import ConfigurationError
from repro.plan import WorkspaceArena


class TestReserve:
    def test_first_reservation_allocates(self):
        arena = WorkspaceArena()
        buf = arena.reserve("x", 8)
        assert buf.shape == (8,) and buf.dtype == DTYPE

    def test_repeat_reservation_returns_same_buffer(self):
        arena = WorkspaceArena()
        a = arena.reserve("x", (4, 2))
        b = arena.reserve("x", (4, 2))
        assert a is b

    def test_fill_applies_on_first_reservation_only(self):
        arena = WorkspaceArena()
        a = arena.reserve("x", 4, fill=1.5)
        assert np.all(a == 1.5)
        a[:] = 7.0
        b = arena.reserve("x", 4, fill=1.5)   # reuse keeps contents
        assert np.all(b == 7.0)

    def test_scoped_reserve_suffixes_every_name(self):
        arena = WorkspaceArena()
        a = arena.scoped(0)("x", 4)
        b = arena.scoped(1)("x", (2, 2), bool)
        assert arena.names == ("x0", "x1")
        assert a is arena.get("x0") and b.dtype == bool

    def test_shape_drift_raises(self):
        arena = WorkspaceArena()
        arena.reserve("x", 8)
        with pytest.raises(ConfigurationError):
            arena.reserve("x", 9)

    def test_dtype_drift_raises(self):
        arena = WorkspaceArena()
        arena.reserve("x", 8)
        with pytest.raises(ConfigurationError):
            arena.reserve("x", 8, dtype=np.uint32)

    def test_reserve_like(self):
        arena = WorkspaceArena()
        src = np.zeros((3, 5), dtype=np.uint64)
        buf = arena.reserve_like("y", src)
        assert buf.shape == src.shape and buf.dtype == src.dtype


class TestFreeze:
    def test_new_name_after_freeze_raises(self):
        arena = WorkspaceArena()
        arena.reserve("x", 4)
        arena.freeze()
        with pytest.raises(ConfigurationError):
            arena.reserve("late", 4)

    def test_existing_name_after_freeze_still_pools(self):
        arena = WorkspaceArena()
        a = arena.reserve("x", 4)
        arena.freeze()
        assert arena.reserve("x", 4) is a

    def test_freeze_chains_and_reports(self):
        arena = WorkspaceArena(tag="t")
        assert arena.freeze() is arena
        assert arena.frozen


class TestLookup:
    def test_get_and_contains(self):
        arena = WorkspaceArena()
        buf = arena.reserve("x", 2)
        assert arena.get("x") is buf
        assert "x" in arena and "y" not in arena

    def test_get_unknown_raises_with_inventory(self):
        arena = WorkspaceArena()
        arena.reserve("x", 2)
        with pytest.raises(ConfigurationError, match="x"):
            arena.get("missing")

    def test_accounting(self):
        arena = WorkspaceArena()
        arena.reserve("a", 4)
        arena.reserve("b", (2, 2))
        assert arena.names == ("a", "b")
        assert arena.nbytes == 8 * np.dtype(DTYPE).itemsize
        assert "2 buffers" in arena.describe()
