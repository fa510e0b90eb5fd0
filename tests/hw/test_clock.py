"""Virtual clock tests."""

import pytest

from repro.hw.clock import BackgroundAccountant, Clock


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().cycles == 0

    def test_custom_start(self):
        assert Clock(100).cycles == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(-1)

    def test_advance(self):
        clock = Clock()
        clock.advance(42)
        assert clock.cycles == 42

    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(10)
        clock.advance(5)
        assert clock.cycles == 15

    def test_advance_truncates_floats(self):
        clock = Clock()
        clock.advance(1.9)
        assert clock.cycles == 1

    def test_negative_advance_rejected(self):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestRegion:
    def test_region_measures(self):
        clock = Clock()
        with clock.region() as region:
            clock.advance(100)
        assert region.elapsed == 100

    def test_region_open_elapsed(self):
        clock = Clock()
        region = clock.region()
        clock.advance(7)
        assert region.elapsed == 7
        assert region.end is None

    def test_region_stop(self):
        clock = Clock()
        region = clock.region()
        clock.advance(3)
        assert region.stop() == 3
        clock.advance(10)
        assert region.elapsed == 3  # frozen after stop

    def test_nested_regions(self):
        clock = Clock()
        with clock.region() as outer:
            clock.advance(5)
            with clock.region() as inner:
                clock.advance(2)
        assert inner.elapsed == 2
        assert outer.elapsed == 7


class TestBackgroundAccountant:
    def test_charges_accumulate(self):
        bg = BackgroundAccountant()
        bg.charge(100)
        bg.charge(50)
        assert bg.cycles == 150
        assert bg.operations == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BackgroundAccountant().charge(-5)

    def test_background_does_not_touch_clock(self):
        clock = Clock()
        bg = BackgroundAccountant()
        bg.charge(1000)
        assert clock.cycles == 0
