"""Reaping child processes with their own resource usage."""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Tuple


def wait_exit(
    proc: subprocess.Popen, timeout_s: float, group: bool = False
) -> Tuple[int, float]:
    """Reap ``proc``, killing it once ``timeout_s`` has passed.

    With ``group`` (a child started with ``start_new_session=True``) the
    kill takes its whole process group, so the child's own children go
    too.  Returns the exit code (-9 when it had to be killed) and the peak
    RSS in MiB, from the kernel's accounting of that child alone.
    """
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline and not killed:
            if group:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            killed = True
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (-9 if killed else proc.returncode), usage.ru_maxrss / 1024.0
