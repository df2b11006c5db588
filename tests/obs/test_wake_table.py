"""The wake table agrees with the trace and with Table 4's CPU row.

``simty explain`` answers "why did the device wake?" with
:func:`render_wake_table`; ``trace.wake_count()`` and the CPU row of
:func:`wakeup_breakdown` answer "how often?".  All three must count the
same wakes for every canonical workload and policy.
"""

import re

import pytest

from repro.metrics.wakeups import wakeup_breakdown
from repro.obs.render import render_wake_table
from repro.runner import RunSpec
from repro.runner.executor import execute_spec


@pytest.mark.parametrize("policy", ["simty", "simty+dur", "native", "bucket"])
@pytest.mark.parametrize("workload", ["light", "heavy"])
def test_wake_table_trace_and_breakdown_agree(workload, policy):
    trace = execute_spec(RunSpec(workload=workload, policy=policy)).trace
    match = re.search(
        r"^wakes: (\d+)/(\d+) batches", render_wake_table(trace), re.MULTILINE
    )
    assert match, "wake table footer missing"
    table_wakes = int(match.group(1))
    assert table_wakes > 0
    assert table_wakes == trace.wake_count()
    assert table_wakes == wakeup_breakdown(trace).cpu.delivered
    assert int(match.group(2)) == trace.batch_count()
