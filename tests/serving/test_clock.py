"""The unified serving clock: deadline arithmetic and the test double."""

from __future__ import annotations

import pytest

from repro.serving import MONOTONIC, Clock, ManualClock


class TestClock:
    def test_now_is_monotonic(self):
        clock = Clock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_deadline_arithmetic(self):
        clock = ManualClock(start=10.0)
        assert clock.deadline_at(None) is None
        assert clock.deadline_at(2.5) == 12.5
        assert clock.deadline_at(2.5, start=100.0) == 102.5

    def test_manual_clock_only_moves_forward(self):
        clock = ManualClock()
        assert clock.now() == 0.0
        clock.advance(0.25)
        assert clock.now() == 0.25
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_module_default_is_shared_and_real(self):
        assert isinstance(MONOTONIC, Clock)
        assert MONOTONIC.now() > 0.0
