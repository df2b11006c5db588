"""Fault injection (copy-on-write derivations)."""

import pytest

from repro.workloads.faults import (
    clone_alarm,
    with_jitter,
    with_no_sleep_bug,
    with_storm,
)
from repro.workloads.scenarios import build_light


class TestNoSleepBug:
    def test_sets_hold_duration(self):
        workload = with_no_sleep_bug(build_light(), "Facebook", 60_000)
        alarms = [
            r.alarm for r in workload.registrations if r.alarm.app == "Facebook"
        ]
        assert all(alarm.hold_duration == 60_000 for alarm in alarms)

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            with_no_sleep_bug(build_light(), "TikTok", 60_000)

    def test_hold_below_task_rejected(self):
        with pytest.raises(ValueError):
            with_no_sleep_bug(build_light(), "Facebook", 1)

    def test_detectable_end_to_end(self):
        from repro.analysis.experiments import run_workload
        from repro.core.simty import SimtyPolicy
        from repro.metrics.anomaly import detect_no_sleep_suspects

        workload = with_no_sleep_bug(build_light(), "Line", 45_000)
        result = run_workload(workload, SimtyPolicy())
        suspects = detect_no_sleep_suspects(result.trace)
        assert "Line" in [s.profile.app for s in suspects]

    def test_bug_costs_energy(self):
        from repro.analysis.experiments import run_workload
        from repro.core.simty import SimtyPolicy

        clean = run_workload(build_light(), SimtyPolicy())
        buggy = run_workload(
            with_no_sleep_bug(build_light(), "Facebook", 30_000),
            SimtyPolicy(),
        )
        assert buggy.energy.total_mj > 1.1 * clean.energy.total_mj


class TestJitter:
    def test_shifts_nominals(self):
        base = build_light()
        base_nominal = next(
            r.alarm.nominal_time
            for r in base.registrations
            if r.alarm.app == "Facebook"
        )
        jittered = with_jitter(build_light(), "Facebook", 30_000, seed=3)
        new_nominal = next(
            r.alarm.nominal_time
            for r in jittered.registrations
            if r.alarm.app == "Facebook"
        )
        assert base_nominal <= new_nominal <= base_nominal + 30_000

    def test_deterministic(self):
        first = with_jitter(build_light(), "Line", 10_000, seed=5)
        second = with_jitter(build_light(), "Line", 10_000, seed=5)
        get = lambda wl: [
            r.alarm.nominal_time
            for r in wl.registrations
            if r.alarm.app == "Line"
        ]
        assert get(first) == get(second)

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            with_jitter(build_light(), "TikTok", 10_000)


class TestStorm:
    def test_interval_shrinks(self):
        workload = with_storm(build_light(), "WeChat", 10)
        alarm = next(
            r.alarm for r in workload.registrations if r.alarm.app == "WeChat"
        )
        assert alarm.repeat_interval == 90_000
        assert alarm.grace_length < alarm.repeat_interval

    def test_invalid_divisor(self):
        with pytest.raises(ValueError):
            with_storm(build_light(), "WeChat", 1)

    def test_storm_multiplies_wakeups(self):
        from repro.analysis.experiments import run_workload
        from repro.core.native import NativePolicy

        clean = run_workload(build_light(), NativePolicy())
        stormy = run_workload(
            with_storm(build_light(), "WeChat", 30), NativePolicy()
        )
        wechat_clean = len(clean.trace.deliveries_for("WeChat"))
        wechat_storm = len(stormy.trace.deliveries_for("WeChat"))
        assert wechat_storm > 5 * wechat_clean

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            with_storm(build_light(), "TikTok", 10)


class TestCopyOnWrite:
    """Injectors derive a new workload and leave the input untouched."""

    def test_input_workload_untouched(self):
        original = build_light()
        before = [
            (r.alarm.nominal_time, r.alarm.hold_duration, r.alarm.repeat_interval)
            for r in original.registrations
        ]
        with_no_sleep_bug(original, "Facebook", 60_000)
        with_jitter(original, "Line", 30_000, seed=1)
        with_storm(original, "WeChat", 10)
        after = [
            (r.alarm.nominal_time, r.alarm.hold_duration, r.alarm.repeat_interval)
            for r in original.registrations
        ]
        assert before == after

    def test_derived_workload_holds_fresh_alarm_objects(self):
        original = build_light()
        derived = with_no_sleep_bug(original, "Facebook", 60_000)
        originals = {id(r.alarm) for r in original.registrations}
        assert all(id(r.alarm) not in originals for r in derived.registrations)

    def test_derived_name_records_the_fault(self):
        derived = with_storm(build_light(), "WeChat", 10)
        assert derived.name == "light+storm(WeChat)"

    def test_faults_chain_without_cross_talk(self):
        original = build_light()
        chained = with_jitter(
            with_no_sleep_bug(original, "Line", 45_000), "Line", 20_000, seed=7
        )
        line = [r.alarm for r in chained.registrations if r.alarm.app == "Line"]
        assert all(alarm.hold_duration == 45_000 for alarm in line)
        untouched = [
            r.alarm for r in original.registrations if r.alarm.app == "Line"
        ]
        assert all(alarm.hold_duration is None for alarm in untouched)

    def test_clone_preserves_identity_but_resets_claims(self):
        original = build_light()
        alarm = original.registrations[0].alarm
        copy = clone_alarm(alarm)
        assert copy is not alarm
        assert copy.alarm_id == alarm.alarm_id
        assert copy.label == alarm.label
        assert copy.nominal_time == alarm.nominal_time

    def test_both_original_and_derived_are_runnable(self):
        # The original's alarms must stay unclaimed after a derivation.
        from repro.analysis.experiments import run_workload
        from repro.core.simty import SimtyPolicy

        original = build_light()
        derived = with_no_sleep_bug(original, "Facebook", 60_000)
        assert run_workload(derived, SimtyPolicy()).trace.delivery_count() > 0
        assert run_workload(original, SimtyPolicy()).trace.delivery_count() > 0


class TestCombinedFaults:
    """Injectors chain (each returns a new workload) and detectors work."""

    def test_jittered_buggy_app_still_flagged(self):
        from repro.analysis.experiments import run_workload
        from repro.core.simty import SimtyPolicy
        from repro.metrics.anomaly import detect_no_sleep_suspects

        workload = with_jitter(
            with_no_sleep_bug(build_light(), "Line", 45_000),
            "Line",
            20_000,
            seed=7,
        )
        result = run_workload(workload, SimtyPolicy())
        suspects = detect_no_sleep_suspects(result.trace)
        assert "Line" in [s.profile.app for s in suspects]

    def test_storm_does_not_mask_buggy_neighbour(self):
        from repro.analysis.experiments import run_workload
        from repro.core.simty import SimtyPolicy
        from repro.metrics.anomaly import detect_no_sleep_suspects

        workload = with_storm(
            with_no_sleep_bug(build_light(), "Facebook", 60_000),
            "WeChat",
            10,
        )
        result = run_workload(workload, SimtyPolicy())
        suspects = [
            s.profile.app for s in detect_no_sleep_suspects(result.trace)
        ]
        assert "Facebook" in suspects
