"""Shared-memory leak guard: no orphaned ring segments on abnormal exit.

A snapshot ring's ``/dev/shm`` segment is normally unlinked by ``close()``;
these tests pin the guard that covers the *abnormal* paths — a process
killed by SIGTERM (container stop) and an interpreter exit that never called
``close()`` — by observing real child interpreters from the outside.  The
regression they guard against: a SIGTERM'd parent leaving one segment per
live ring behind, plus the resource tracker's "leaked shared_memory"
complaint at exit.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import parallel
from repro.core.selection.engine import EntropyEngine
from repro.core.runtime import RuntimeOptions
from repro.core.selection.parallel import EvaluatorPool, _SnapshotRing

SRC_DIR = str(Path(parallel.__file__).resolve().parents[3])

#: Child that owns one live ring and reports its segment name, then idles
#: (SIGTERM case) or exits without ever closing the ring (atexit case).
CHILD_TEMPLATE = """\
import sys, time
from repro.core.selection.parallel import _SnapshotRing
ring = _SnapshotRing(64)
print(ring._shm.name, flush=True)
{tail}
"""


def _spawn_child(tail: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.Popen(
        [sys.executable, "-c", CHILD_TEMPLATE.format(tail=tail)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _segment_path(name: str) -> Path:
    return Path("/dev/shm") / name


def _wait_for_unlink(path: Path, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not path.exists():
            return True
        time.sleep(0.02)
    return not path.exists()


needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="segment observation needs a /dev/shm filesystem",
)


@needs_dev_shm
def test_sigterm_unlinks_the_segment_and_preserves_exit_status():
    child = _spawn_child("time.sleep(60)")
    try:
        name = child.stdout.readline().strip()
        assert name, "child never reported its segment name"
        segment = _segment_path(name)
        assert segment.exists(), "child's live segment should be visible"

        child.send_signal(signal.SIGTERM)
        child.wait(timeout=10)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    stderr = child.stderr.read()

    # The guard reaps the segment, then chains to the default disposition so
    # the exit status still reads "terminated by SIGTERM".
    assert child.returncode == -signal.SIGTERM
    assert _wait_for_unlink(segment), f"segment {name} leaked after SIGTERM"
    assert "leaked shared_memory" not in stderr


@needs_dev_shm
def test_atexit_reaps_rings_never_closed():
    child = _spawn_child("sys.exit(0)")
    try:
        name = child.stdout.readline().strip()
        child.wait(timeout=10)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    stderr = child.stderr.read()

    assert child.returncode == 0
    assert name, "child never reported its segment name"
    assert _wait_for_unlink(_segment_path(name)), f"segment {name} leaked at exit"
    assert "leaked shared_memory" not in stderr


def test_close_unregisters_from_the_live_registry():
    before = set(parallel._LIVE_RINGS)
    ring = _SnapshotRing(16)
    assert ring in parallel._LIVE_RINGS
    ring.close()
    assert ring not in parallel._LIVE_RINGS
    # close() is idempotent and leaves unrelated rings registered.
    ring.close()
    assert before <= set(parallel._LIVE_RINGS) | {ring}


def test_guard_is_installed_once_per_owning_process():
    ring = _SnapshotRing(16)
    try:
        assert parallel._GUARD_PID == os.getpid()
        handler = signal.getsignal(signal.SIGTERM)
        # A second ring must not re-chain the handler to itself.
        second = _SnapshotRing(16)
        try:
            assert signal.getsignal(signal.SIGTERM) is handler
            assert parallel._PREV_SIGTERM is not parallel._sigterm_reap_and_chain
        finally:
            second.close()
    finally:
        ring.close()


def _sigterm_is_default(_):
    return signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


@pytest.mark.parallel
def test_pool_workers_restore_the_default_sigterm_disposition():
    """Pool workers must not keep the guard's Python-level SIGTERM handler.

    ``Pool.terminate`` SIGTERMs workers that may be blocked in ``sem_wait``
    on the task queue's lock; a Python handler never runs there, so such a
    worker outlived the graceful teardown until the watchdog SIGKILLed it.
    """
    prior = JointDistribution.independent({"f0": 0.6, "f1": 0.3, "f2": 0.5})
    with EvaluatorPool(RuntimeOptions(workers=2)) as pool:
        pool.attach(EntropyEngine(prior, CrowdModel(0.8)))
        # The fork creates the engine's snapshot ring, installing the guard.
        workers = pool._ensure_pool()
        assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
        assert workers.map(_sigterm_is_default, range(4), chunksize=1) == [True] * 4
