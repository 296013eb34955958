"""Process-tree RSS and host-window health, read straight from /proc.

psutil is not installed; Ray started with ``address='local'`` runs its GCS,
raylet and every worker as descendants of the process that started it, so
that process's tree is exactly "the benchmark and every Ray process it
started".
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time
from typing import Dict, List

_PAGE = os.sysconf('SC_PAGE_SIZE')


def _parents() -> Dict[int, int]:
    """pid -> ppid for every live process."""
    out = {}
    for name in os.listdir('/proc'):
        if not name.isdigit():
            continue
        try:
            with open(f'/proc/{name}/stat') as f:
                stat = f.read()
        except OSError:
            continue            # exited while scanning
        # comm may contain spaces/parens: the fields after the LAST ')'
        out[int(name)] = int(stat[stat.rindex(')') + 2:].split()[1])
    return out


def descendants(root: int) -> List[int]:
    """``root`` and every process below it."""
    children: Dict[int, List[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    seen, todo = [], [root]
    while todo:
        pid = todo.pop()
        seen.append(pid)
        todo.extend(children.get(pid, ()))
    return seen


def tree_rss_mb(root: int) -> float:
    """Summed resident set of ``root``'s process tree, in MB (2^20 bytes)."""
    total = 0
    for pid in descendants(root):
        try:
            with open(f'/proc/{pid}/statm') as f:
                total += int(f.read().split()[1])
        except OSError:
            continue
    return total * _PAGE / (1 << 20)


def kill_tree(root: int) -> None:
    """SIGKILL every descendant of ``root`` (not ``root`` itself)."""
    for pid in descendants(root):
        if pid != root:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, not to init.
    Ray's agents outlive a raylet that exits before it is reaped, and an
    init that does not reap leaves that raylet a zombie the agents take for
    alive; as the subreaper this process can stop and reap all of them."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def stop_and_reap(timeout_s: float = 15.0) -> None:
    """SIGKILL every descendant and wait until each has ended (or the
    timeout passes)."""
    deadline = time.monotonic() + timeout_s
    while True:
        kill_tree(os.getpid())
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return              # no children left
        if time.monotonic() > deadline:
            return
        time.sleep(0.05)


class RssSampler:
    """Background sampler of this process's tree RSS; ``peak_mb`` is the max
    over the samples taken between ``start()`` and ``stop()``."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = None

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_mb

    def _loop(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid))
            if self._stop.wait(self.interval_s):
                return


def _cpu_times() -> List[int]:
    with open('/proc/stat') as f:
        return [int(x) for x in f.readline().split()[1:]]


class WindowHealth:
    """Visible CPUs (scheduler affinity, not ``nproc``, which follows
    OMP_NUM_THREADS) and the CPU steal share since construction."""

    def __init__(self):
        self._t0 = _cpu_times()

    def stamp(self) -> dict:
        t1 = _cpu_times()
        delta = [b - a for a, b in zip(self._t0, t1)]
        total = sum(delta)
        return {
            'visible_cpus': len(os.sched_getaffinity(0)),
            'steal_pct': round(100.0 * delta[7] / total, 3) if total else 0.0,
        }
