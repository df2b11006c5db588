"""The alarm model: validation, intervals, perceptibility, rescheduling."""

import pytest

from repro.core.alarm import Alarm, RepeatKind
from repro.core.hardware import SPEAKER_VIBRATOR_ONLY, WIFI_ONLY
from repro.core.intervals import Interval

from ..conftest import make_alarm, oneshot


class TestValidation:
    def test_negative_nominal_rejected(self):
        with pytest.raises(ValueError):
            make_alarm(nominal=-1)

    def test_one_shot_with_repeat_interval_rejected(self):
        with pytest.raises(ValueError):
            Alarm(
                app="x",
                nominal_time=0,
                repeat_interval=100,
                repeat_kind=RepeatKind.ONE_SHOT,
            )

    def test_repeating_without_interval_rejected(self):
        with pytest.raises(ValueError):
            Alarm(
                app="x",
                nominal_time=0,
                repeat_interval=0,
                repeat_kind=RepeatKind.STATIC,
            )

    def test_grace_smaller_than_window_rejected(self):
        # Sec. 3.1.2: the grace interval is no smaller than the window.
        with pytest.raises(ValueError):
            make_alarm(window=10_000, grace=5_000)

    def test_grace_at_least_repeat_rejected(self):
        # Sec. 3.1.2: beta < 1.
        with pytest.raises(ValueError):
            make_alarm(repeat=60_000, grace=60_000)

    def test_window_fraction_and_length_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Alarm(
                app="x",
                nominal_time=0,
                repeat_interval=100,
                repeat_kind=RepeatKind.STATIC,
                window_length=10,
                window_fraction=0.5,
            )

    def test_fraction_on_one_shot_rejected(self):
        with pytest.raises(ValueError):
            Alarm(
                app="x",
                nominal_time=0,
                repeat_kind=RepeatKind.ONE_SHOT,
                window_fraction=0.5,
            )

    def test_grace_defaults_to_window(self):
        alarm = make_alarm(window=5_000)
        assert alarm.grace_length == 5_000

    def test_fractions_resolve_against_interval(self):
        alarm = Alarm(
            app="x",
            nominal_time=0,
            repeat_interval=100_000,
            repeat_kind=RepeatKind.STATIC,
            window_fraction=0.75,
            grace_fraction=0.96,
        )
        assert alarm.window_length == 75_000
        assert alarm.grace_length == 96_000


class TestIntervals:
    def test_window_interval(self):
        alarm = make_alarm(nominal=10_000, window=5_000)
        assert alarm.window_interval() == Interval(10_000, 15_000)

    def test_grace_interval(self):
        alarm = make_alarm(nominal=10_000, window=5_000, grace=30_000)
        assert alarm.grace_interval() == Interval(10_000, 40_000)

    def test_tolerance_uses_window_when_perceptible(self):
        alarm = make_alarm(
            window=5_000, grace=30_000, hardware=SPEAKER_VIBRATOR_ONLY
        )
        assert alarm.tolerance_interval() == alarm.window_interval()

    def test_tolerance_uses_grace_when_imperceptible(self):
        alarm = make_alarm(window=5_000, grace=30_000, hardware=WIFI_ONLY)
        assert alarm.tolerance_interval() == alarm.grace_interval()


class TestPerceptibility:
    def test_one_shot_always_perceptible(self):
        # Footnote 5, before and after the hardware is learned.
        alarm = oneshot()
        assert alarm.is_perceptible()
        alarm.record_delivery(5_000)
        assert alarm.is_perceptible()

    def test_unknown_hardware_perceptible(self):
        alarm = make_alarm(known=False)
        assert alarm.is_perceptible()

    def test_known_wifi_imperceptible(self):
        assert not make_alarm(hardware=WIFI_ONLY).is_perceptible()

    def test_known_speaker_perceptible(self):
        assert make_alarm(hardware=SPEAKER_VIBRATOR_ONLY).is_perceptible()

    def test_learning_on_delivery(self):
        # Footnote 4: the hardware set is observed at first delivery, and
        # with it (footnote 5) the cached perceptibility flips.
        alarm = make_alarm(known=False)
        assert alarm.hardware.is_empty()
        assert alarm.is_perceptible()
        alarm.record_delivery(5_000)
        assert alarm.hardware == WIFI_ONLY
        assert not alarm.is_perceptible()


class TestRescheduling:
    def test_one_shot_does_not_repeat(self):
        alarm = oneshot()
        assert alarm.next_nominal_after(9_000) is None
        assert not alarm.reschedule(9_000)

    def test_static_stays_on_grid(self):
        alarm = make_alarm(nominal=60_000, repeat=60_000)
        # Delivered late: next nominal is still grid-aligned.
        assert alarm.next_nominal_after(95_000) == 120_000

    def test_dynamic_reappoints_from_delivery(self):
        alarm = make_alarm(
            nominal=60_000, repeat=60_000, kind=RepeatKind.DYNAMIC
        )
        assert alarm.next_nominal_after(95_000) == 155_000

    def test_reschedule_mutates_nominal(self):
        alarm = make_alarm(nominal=60_000, repeat=60_000)
        assert alarm.reschedule(61_000)
        assert alarm.nominal_time == 120_000

    def test_delivery_counters(self):
        alarm = make_alarm()
        alarm.record_delivery(1_500)
        alarm.record_delivery(2_500)
        assert alarm.delivery_count == 2
        assert alarm.last_delivery == 2_500


class TestIdentity:
    def test_ids_unique(self):
        assert make_alarm().alarm_id != make_alarm().alarm_id

    def test_equality_by_id(self):
        alarm = make_alarm()
        assert alarm == alarm
        assert alarm != make_alarm()

    def test_usable_in_sets(self):
        alarm = make_alarm()
        assert alarm in {alarm}

    def test_default_label(self):
        alarm = make_alarm(app="gmail")
        assert alarm.label.startswith("gmail#")
