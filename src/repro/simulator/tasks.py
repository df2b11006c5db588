"""Task execution model.

When an alarm is delivered, its app runs a task: a short burst of CPU work
that wakelocks zero or more hardware components for the task's duration
(footnote 4: the wakelocked set is only revealed at this point).  Within a
batch, tasks serialize on the CPU; a component shared by several tasks is
*activated once* per batch but held for the sum of the sharing tasks'
durations.  This is what lets aligned alarms amortize activation energy —
the core of the paper's hardware-similarity argument (Sec. 3.1.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple

from ..core.alarm import Alarm
from ..core.hardware import Component, HardwareSet


class TaskExecution(NamedTuple):
    """One task run inside a batch.

    ``hold`` is how long the task's hardware stays wakelocked; for a
    well-behaved app it equals ``duration``, while a no-sleep bug
    (``Alarm.hold_duration``) keeps components powered long after the CPU
    work finished.
    """

    alarm_id: int
    app: str
    label: str
    start: int
    duration: int
    hold: int
    hardware: HardwareSet

    @property
    def end(self) -> int:
        return self.start + self.duration


def schedule_batch_tasks(alarms: Iterable[Alarm], start: int) -> List[TaskExecution]:
    """Serialize the batch's tasks on the CPU starting at ``start``.

    Execution order follows batch membership order, which both policies fill
    deterministically, so traces are reproducible.
    """
    executions: List[TaskExecution] = []
    cursor = start
    for alarm in alarms:
        hold = (
            alarm.hold_duration
            if alarm.hold_duration is not None
            else alarm.task_duration
        )
        executions.append(
            TaskExecution(
                alarm.alarm_id,
                alarm.app,
                alarm.label,
                cursor,
                alarm.task_duration,
                hold,
                alarm.true_hardware,
            )
        )
        cursor += alarm.task_duration
    return executions


def component_hold_times(executions: Iterable[TaskExecution]) -> Dict[Component, int]:
    """Per-component hold time (ticks) across a batch's tasks.

    Each component in the batch union appears exactly once, with the summed
    duration of the tasks that wakelock it; the power model charges one
    activation plus hold-time energy per component.
    """
    holds: Dict[Component, int] = {}
    for execution in executions:
        for component in execution.hardware:
            holds[component] = holds.get(component, 0) + execution.hold
    return holds
