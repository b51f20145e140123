"""Run one child process with a memory cap and a timeout, and collect its
wall time, rusage and output.

The child's stdout and stderr go to unlinked temporary files in the work
directory, so a child that prints megabytes never blocks on a full pipe.
Its exit is awaited through a pidfd (a kill through it cannot hit a reused
pid), then reaped with os.wait4, which returns the child's own user and
system time and peak RSS.  /usr/bin/time is not needed.
"""

import os
import resource
import select
import signal
import subprocess
import tempfile
import time
from typing import NamedTuple

MEM_CAP_BYTES = 1 << 30  # address space per child; the largest job maps ~310 MB
JOB_TIMEOUT_S = 60.0


class ChildResult(NamedTuple):
    status: str  # "ok", "exit", "timeout" or "memory"
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def run(cmd, env, workdir, timeout=JOB_TIMEOUT_S, pass_fds=()) -> ChildResult:
    """Run cmd to completion (or kill it at timeout) and measure it."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
            preexec_fn=_cap_memory, pass_fds=pass_fds,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(timeout * 1000)
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (e.g. SIGTERM): leave no child behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if timed_out:
        state = "timeout"
    elif b"MemoryError" in stderr or b"Unable to allocate" in stderr:
        state = "memory"
    elif proc.returncode != 0:
        state = "exit"
    else:
        state = "ok"
    return ChildResult(
        state, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss, stdout, stderr,
    )
