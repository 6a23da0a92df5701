"""CPU time and resident memory of this process together with its descendants.

`getrusage(RUSAGE_CHILDREN)` counts only children that have ended and been
waited for, so a worker pool that lives across rounds would never be
charged, and a child reaped late would be charged to a later round.  Here
the live descendants are read from /proc as well: their own CPU time plus
that of their waited-for children (fields utime, stime, cutime, cstime of
/proc/<pid>/stat) and their resident set.  The difference of `cpu_seconds()`
between two instants is then the CPU time the whole process tree used in
between, whether a child ended, was reaped or still runs at either instant
(a zombie keeps its times in /proc until it is reaped).  Children are found
through /proc/<pid>/task/<tid>/children (Linux 4.2 or later).
"""

from __future__ import annotations

import os
import resource
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _children(pid: int) -> list[int]:
    try:
        return [int(c) for task in Path(f"/proc/{pid}/task").iterdir()
                for c in (task / "children").read_text().split()]
    except (FileNotFoundError, ProcessLookupError):
        return []  # the process or thread has ended since it was listed


def _stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat from the state on (index 0 is field 3), or None."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None


def descendants() -> list[int]:
    out, todo = [], _children(os.getpid())
    while todo:
        child = todo.pop()
        out.append(child)
        todo.extend(_children(child))
    return out


def live_usage() -> tuple[float, int]:
    """(CPU seconds, resident bytes) of the live (or unreaped) descendants."""
    cpu, rss = 0.0, 0
    for pid in descendants():
        stat = _stat(pid)
        if stat:
            cpu += sum(int(stat[k]) for k in (11, 12, 13, 14)) / _TICK
            rss += int(stat[21]) * _PAGE
    return cpu, rss


def cpu_seconds() -> float:
    """User plus system time of this process, its threads and all its descendants."""
    live, _ = live_usage()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime + live


def tree_rss_bytes() -> int:
    """Resident bytes of this process plus its descendants now; 0 if it has none."""
    _, rss = live_usage()
    if not rss:
        return 0
    own = _stat(os.getpid())
    return rss + (int(own[21]) * _PAGE if own else 0)
