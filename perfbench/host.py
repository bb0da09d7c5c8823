"""Host stamp, resource and health accounting for one benchmark run."""

from __future__ import annotations

import logging
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, Optional

_SHM_DIR = "/dev/shm"

#: Text of the shared-pool watchdog warning counted as a teardown stall.
STALL_TEXT = "pool teardown stalled"


def git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(root, ".git", ref), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def fsync_p50_ms(directory: str, samples: int = 31) -> float:
    """Median wall time of one small write + fsync in ``directory``."""
    path = os.path.join(directory, f"fsync-probe-{os.getpid()}")
    times = []
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(samples):
            started = time.perf_counter()
            handle.write("x" * 64 + "\n")
            handle.flush()
            os.fsync(handle.fileno())
            times.append((time.perf_counter() - started) * 1000.0)
    os.unlink(path)
    return statistics.median(times)


def host_stamp(root: str, out_dir: str) -> Dict[str, Any]:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "platform": platform.platform(),
        "fsync_p50_ms": round(fsync_p50_ms(out_dir), 4),
    }


#: A reference second is this many runs of the fixed reference loop (about
#: one wall second on the 2-CPU host the benchmark was defined on).
REF_LOOPS_PER_REF_S = 100

_REF_VALUES = None


def _reference_once() -> float:
    """Wall seconds of one fixed mix of interpreter work and small numpy calls."""
    global _REF_VALUES
    import numpy

    if _REF_VALUES is None:
        _REF_VALUES = numpy.linspace(0.0, 1.0, 4096)
    started = time.perf_counter()
    total = 0
    for index in range(100000):
        total += index * index
    for index in range(1700):
        total += float(numpy.log(_REF_VALUES[index:index + 64] + 1.0).sum())
    return time.perf_counter() - started


def reference_s() -> float:
    """Median of three reference-loop times: the host's current speed."""
    return statistics.median(_reference_once() for _ in range(3))


def ref_rate(count: float, wall_s: float, ref_before: float, ref_after: float) -> float:
    """``count`` per reference second over a unit bracketed by two speed probes.

    The host this benchmark runs on changes speed by up to 2x over tens of
    seconds (other tenants of the machine), far more than any change worth
    detecting.  Dividing the unit's wall time by the reference loop's time
    measured right before and after it cancels that drift: a rate in
    reference seconds moves only when the program does.
    """
    ref = 0.5 * (ref_before + ref_after)
    return count / (wall_s / (ref * REF_LOOPS_PER_REF_S))


def shm_segments() -> set:
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped descendant.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the peak of the largest child
    (and, through each child's own accounting, its reaped descendants), so
    the sum bounds the largest two-level footprint the run reached.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return (own + children) / scale


class _StallCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.stalls = 0
        self.warnings = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.warnings += 1
        if STALL_TEXT in record.getMessage():
            self.stalls += 1


class Health:
    """Leak and recovery counts, taken around the measured part of a run."""

    def __init__(self) -> None:
        self._shm_before = shm_segments()
        self._counter = _StallCounter()
        self._logger = logging.getLogger("repro")
        self._logger.addHandler(self._counter)
        self.recovery: Dict[str, int] = {}
        self.server_stalls = 0

    def add_recovery(self, counters: Dict[str, Any]) -> None:
        for name, value in counters.items():
            self.recovery[name] = self.recovery.get(name, 0) + int(value or 0)

    def finish(self, extra_live: int = 0) -> Dict[str, Any]:
        self._logger.removeHandler(self._counter)
        live = len(multiprocessing.active_children()) + extra_live
        new_shm = sorted(shm_segments() - self._shm_before)
        return {
            "live_children": live,
            "new_shm_segments": len(new_shm),
            "new_shm_names": new_shm[:16],
            "teardown_stalls": self._counter.stalls + self.server_stalls,
            "repro_warnings": self._counter.warnings,
            "recovery": dict(sorted(self.recovery.items())),
            "recoveries": sum(self.recovery.values()),
        }
