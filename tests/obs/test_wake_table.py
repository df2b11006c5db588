"""The wake table agrees with the trace, Table 4's CPU row and the
energy attribution.

``simty explain`` answers "why did the device wake?" with
:func:`render_wake_table`; ``trace.wake_count()`` and the CPU row of
:func:`wakeup_breakdown` answer "how often?".  All three must count the
same wakes for every canonical workload and policy, and the apps the
table's footer blames must be the apps :func:`attribute_energy` charges
wake energy to.
"""

import re

import pytest

from repro.metrics.wakeups import wakeup_breakdown
from repro.obs.render import render_wake_table
from repro.power.attribution import attribute_energy
from repro.power.profiles import NEXUS5
from repro.runner import RunSpec
from repro.runner.executor import execute_spec


@pytest.mark.parametrize("policy", ["simty", "simty+dur", "native", "bucket"])
@pytest.mark.parametrize("workload", ["light", "heavy"])
def test_wake_table_trace_and_breakdown_agree(workload, policy):
    trace = execute_spec(RunSpec(workload=workload, policy=policy)).trace
    table = render_wake_table(trace)
    match = re.search(r"^wakes: (\d+)/(\d+) batches", table, re.MULTILINE)
    assert match, "wake table footer missing"
    table_wakes = int(match.group(1))
    assert table_wakes > 0
    assert table_wakes == trace.wake_count()
    assert table_wakes == wakeup_breakdown(trace).cpu.delivered
    assert int(match.group(2)) == trace.batch_count()
    footer = re.search(r"^wakes by app: (.*)$", table, re.MULTILINE)
    assert footer, "wakes-by-app footer missing"
    blamed = {pair.split("=")[0] for pair in footer.group(1).split("  ")}
    charged = {
        app
        for app, share in attribute_energy(trace, NEXUS5).items()
        if share.wake_mj > 0
    }
    assert blamed == charged
