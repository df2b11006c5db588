"""Queue entries: interval intersection, hardware union, delivery time."""

import pytest

from repro.core.entry import QueueEntry
from repro.core.hardware import Component, SPEAKER_VIBRATOR_ONLY, WIFI_ONLY, WPS_ONLY
from repro.core.intervals import Interval

from ..conftest import make_alarm


class TestAttributes:
    def test_single_alarm_entry(self):
        alarm = make_alarm(nominal=100, window=50, grace=500)
        entry = QueueEntry([alarm])
        assert entry.window == Interval(100, 150)
        assert entry.grace == Interval(100, 600)
        assert entry.hardware == WIFI_ONLY

    def test_window_intersection_narrows(self):
        entry = QueueEntry(
            [
                make_alarm(nominal=100, window=100, grace=500),
                make_alarm(nominal=150, window=100, grace=500),
            ]
        )
        assert entry.window == Interval(150, 200)

    def test_window_can_vanish_while_grace_holds(self):
        # Two imperceptible alarms aligned via grace overlap only.
        entry = QueueEntry(
            [
                make_alarm(nominal=0, window=10, grace=1_000),
                make_alarm(nominal=500, window=10, grace=1_000),
            ]
        )
        assert entry.window is None
        assert entry.grace == Interval(500, 1_000)

    def test_hardware_union(self):
        entry = QueueEntry(
            [
                make_alarm(hardware=WIFI_ONLY),
                make_alarm(hardware=WPS_ONLY, nominal=1_100),
            ]
        )
        assert Component.WIFI in entry.hardware
        assert Component.WPS in entry.hardware

    def test_perceptible_if_any_member_is(self):
        entry = QueueEntry([make_alarm(hardware=WIFI_ONLY)])
        assert not entry.is_perceptible()
        entry.add(make_alarm(hardware=SPEAKER_VIBRATOR_ONLY, nominal=1_010))
        assert entry.is_perceptible()

    def test_removal_recomputes_perceptibility(self):
        wifi = make_alarm(hardware=WIFI_ONLY)
        speaker = make_alarm(hardware=SPEAKER_VIBRATOR_ONLY, nominal=1_010)
        entry = QueueEntry([wifi, speaker])
        assert entry.is_perceptible()
        entry.remove(speaker)
        assert not entry.is_perceptible()

    def test_duplicate_member_rejected(self):
        alarm = make_alarm()
        entry = QueueEntry([alarm])
        with pytest.raises(ValueError):
            entry.add(alarm)


class TestDeliveryTime:
    def test_empty_entry_has_no_delivery_time(self):
        with pytest.raises(ValueError):
            QueueEntry().delivery_time(grace_mode=False)

    def test_native_mode_uses_window_start(self):
        entry = QueueEntry([make_alarm(nominal=100, window=50, grace=500)])
        assert entry.delivery_time(grace_mode=False) == 100

    def test_grace_mode_imperceptible_uses_grace_start(self):
        entry = QueueEntry(
            [
                make_alarm(nominal=100, window=50, grace=500),
                make_alarm(nominal=400, window=50, grace=500),
            ]
        )
        # Grace intersection starts at the later nominal.
        assert entry.delivery_time(grace_mode=True) == 400

    def test_grace_mode_perceptible_uses_window_start(self):
        entry = QueueEntry(
            [
                make_alarm(
                    nominal=100,
                    window=50,
                    grace=500,
                    hardware=SPEAKER_VIBRATOR_ONLY,
                )
            ]
        )
        assert entry.delivery_time(grace_mode=True) == 100

    def test_delivery_time_monotone_in_members(self):
        first = make_alarm(nominal=100, window=200, grace=900)
        entry = QueueEntry([first])
        before = entry.delivery_time(grace_mode=True)
        entry.add(make_alarm(nominal=250, window=200, grace=900))
        assert entry.delivery_time(grace_mode=True) >= before


class TestRemoval:
    def test_remove_rebuilds_attributes(self):
        first = make_alarm(nominal=100, window=100, grace=500)
        second = make_alarm(nominal=150, window=100, grace=500, hardware=WPS_ONLY)
        entry = QueueEntry([first, second])
        entry.remove(second)
        assert entry.window == Interval(100, 200)
        assert entry.hardware == WIFI_ONLY

    def test_remove_last_member_empties(self):
        alarm = make_alarm()
        entry = QueueEntry([alarm])
        entry.remove(alarm)
        assert entry.is_empty()

    def test_contains_alarm_id(self):
        alarm = make_alarm()
        entry = QueueEntry([alarm])
        assert entry.contains_alarm_id(alarm.alarm_id) is alarm
        assert entry.contains_alarm_id(-1) is None
