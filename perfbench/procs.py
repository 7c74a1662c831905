"""Process-tree bookkeeping for the served workloads (Linux ``/proc``).

The server runs in its own session, so one ``killpg`` reaches its pool
lane workers too.  This process makes itself a child subreaper, so a
lane orphaned by its server's death is re-parented here and reaped
instead of outliving the run.
"""

from __future__ import annotations

import ctypes
import glob
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36
_REAP_LIMIT_S = 10.0


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _parents() -> dict[int, int]:
    out = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                text = fh.read()
        except OSError:
            continue
        # pid (comm) state ppid ...: comm may hold spaces, so split
        # after its closing parenthesis.
        fields = text[text.rindex(")") + 2:].split()
        out[int(text.split(" ", 1)[0])] = int(fields[1])
    return out


def tree(root: int) -> set[int]:
    """``root`` and every live descendant."""
    parents = _parents()
    found = {root}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parents.items():
            if ppid in found and pid not in found:
                found.add(pid)
                grew = True
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return False
    return text[text.rindex(")") + 2] != "Z"


def kill_tree(proc, pids: set[int]) -> None:
    """SIGKILL the server's session, then reap the server (through
    ``proc``) and every other member of ``pids`` (orphaned lanes come
    back through the subreaper link).  Safe to repeat: the session id
    stays reserved while any member lives."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + _REAP_LIMIT_S
    for pid in pids - {proc.pid}:
        while True:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    break
            except ChildProcessError:
                if not _alive(pid):
                    break
            if time.monotonic() > deadline:
                raise RuntimeError(f"process {pid} of the server tree outlived SIGKILL")
            time.sleep(0.01)


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(root: int) -> float:
    """Sum of each live tree member's peak resident set (VmHWM)."""
    return sum(_status_kb(pid, "VmHWM:") for pid in tree(root)) / 1024.0


def stray_segments(pids: set[int]) -> list[str]:
    """Shared-memory segments the program names after a tree member."""
    found = []
    for pid in pids:
        found += glob.glob(f"/dev/shm/repro-{pid}-*")
    return sorted(found)


def unlink_segments(paths: list[str]) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
