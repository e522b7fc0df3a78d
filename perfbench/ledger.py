"""Resource ledger: what the process tree under test holds, sampled.

Read straight from ``/proc`` and ``/dev/shm``.  The ledger never calls
``repro.pages.shm.cleanup_all_slabs()`` before it reads: that call hides
exactly the leak the ledger is for.
"""

from __future__ import annotations

import os
import resource
import threading
from dataclasses import dataclass, field
from typing import Dict, List

from repro.pages.shm import SLAB_PREFIX, live_slab_count


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as handle:
        stat = handle.read()
    return stat[stat.rfind(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """Time the threads of ``pid`` have spent on a CPU, to the nanosecond
    (``schedstat``); 0 if it is gone."""
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except OSError:
            continue  # thread exited while we looked
    return total / 1e9


def own_cpu_seconds() -> float:
    """This process's CPU time plus that of every child it has reaped."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def child_pids(pid: int = 0) -> List[int]:
    """Live direct children of ``pid`` (default: this process)."""
    parent = pid or os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == parent and fields[0] != "Z":
            children.append(int(entry))
    return sorted(children)


def rss_bytes(pid: int) -> int:
    """Resident set of one process (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def cpu_ticks() -> tuple:
    """``(steal, total)`` jiffies of the host's CPUs since boot: the share
    of time a hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def own_shm_segments() -> List[str]:
    """``/dev/shm`` slab segments created by this process."""
    prefix = f"{SLAB_PREFIX}_{os.getpid()}_"
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(prefix))


@dataclass
class Sample:
    """One reading of the ledger."""

    fds: int
    shm_entries: int
    live_slabs: int
    threads: int
    children: List[int] = field(default_factory=list)
    rss_mb: float = 0.0
    cpu_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "fds": self.fds,
            "shm_entries": self.shm_entries,
            "live_slabs": self.live_slabs,
            "threads": self.threads,
            "children": len(self.children),
            "rss_mb": round(self.rss_mb, 3),
            "cpu_s": round(self.cpu_s, 3),
        }


def sample() -> Sample:
    """Open fds, own ``/dev/shm`` entries, live slabs, threads, children,
    and the resident memory and CPU time of this process plus its children
    (pool workers and daemons; forked arms once reaped)."""
    children = child_pids()
    rss = rss_bytes(os.getpid()) + sum(rss_bytes(pid) for pid in children)
    return Sample(
        fds=len(os.listdir("/proc/self/fd")),
        shm_entries=len(own_shm_segments()),
        live_slabs=live_slab_count(),
        threads=threading.active_count(),
        children=children,
        rss_mb=rss / (1024 * 1024),
        cpu_s=own_cpu_seconds() + sum(cpu_seconds(pid) for pid in children),
    )
