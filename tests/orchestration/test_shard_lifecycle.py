"""Shard processes exit with a SIGKILLed parent and reset SIGTERM at start.

Both are observed from outside, on real processes:

* A parent killed by SIGKILL never runs its shutdown reaper, so its shards
  must notice the death themselves, as EOF on their command pipe.  That only
  happens if no shard still holds a parent-side pipe end it inherited at
  fork time.
* A forked shard must not keep the parent's Python-level SIGTERM handler
  (the ring guard installs one), so a plain SIGTERM stops it.  This is the
  same reset the scan-pool workers do (see
  ``tests/core/selection/test_shm_guard.py``).
"""

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.evaluation.experiment import ExperimentConfig, publish_work
from repro.orchestration.cluster_worker import local_worker_main
from repro.orchestration.worker import shard_main

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Child that forks a two-shard orchestrator pool, reports the shard pids,
#: then idles until it is killed.
CHILD = """\
import time
from repro.evaluation.experiment import publish_work
from repro.orchestration.orchestrator import _ShardPool
with publish_work([], None, {}):
    pool = _ShardPool(2)
print(" ".join(str(s.process.pid) for s in pool.shards), flush=True)
time.sleep(60)
"""


def _running(pid):
    """Whether ``pid`` is a live process; a zombie awaiting its reaper is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs: probe with signal 0
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_shards_of_a_sigkilled_parent_exit():
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        text=True,
    )
    try:
        pids = [int(token) for token in child.stdout.readline().split()]
        assert len(pids) == 2
        assert all(_running(pid) for pid in pids)
        child.kill()
        child.wait(timeout=10)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = [pid for pid in pids if _running(pid)]
    for pid in leaked:  # keep the test run itself leak-free
        os.kill(pid, signal.SIGKILL)
    assert not leaked, f"shards outlived their SIGKILLed parent: {leaked}"


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _shard_target():
    parent_end, child_end = multiprocessing.get_context("fork").Pipe()
    # The test keeps parent_end open, so the shard idles in recv().
    return shard_main, (child_end, [parent_end]), parent_end


def _local_worker_target():
    # Nothing listens on the port: the worker idles in its reconnect loop.
    return local_worker_main, ("127.0.0.1", _free_port(), "w-0", None), None


@pytest.mark.parametrize(
    "make_target", [_shard_target, _local_worker_target], ids=["shard", "local"]
)
def test_entry_points_restore_the_default_sigterm_disposition(make_target):
    target, args, keep_open = make_target()
    # Fork under a parent handler that swallows SIGTERM: a child that kept
    # it would ignore every SIGTERM below.
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        with publish_work([], ExperimentConfig(), {}):
            process = multiprocessing.get_context("fork").Process(
                target=target, args=args, daemon=True
            )
            process.start()
    finally:
        signal.signal(signal.SIGTERM, previous)
    try:
        # Repeat the signal: one sent before the child reset its disposition
        # is swallowed by the inherited handler.
        deadline = time.monotonic() + 5.0
        while process.exitcode is None and time.monotonic() < deadline:
            os.kill(process.pid, signal.SIGTERM)
            process.join(timeout=0.05)
        assert process.exitcode == -signal.SIGTERM
    finally:
        if process.is_alive():
            process.kill()
            process.join()
        if keep_open is not None:
            keep_open.close()
