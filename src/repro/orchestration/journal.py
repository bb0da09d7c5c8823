"""Crash-safe journal, checkpoint and lock primitives for run directories.

Three durability building blocks, shared by the experiment orchestrator and
the service session snapshot store:

* :class:`JournalWriter` / :func:`read_records` — an append-only JSON-lines
  event log with group commit.  ``append`` hands each record to the OS in
  one write and returns without an ``fsync``; ``sync`` makes everything
  appended so far durable with one ``fsync``, and ``close`` syncs too.  A
  process crash therefore loses nothing that was appended; a power loss
  loses at most the records appended since the last ``sync``, and may tear
  the last of them.  A record is whole only once its newline is on disk:
  the reader drops an unterminated trailing line, and the writer cuts it
  off before appending again, so a torn tail never ends up mid-file.
* :func:`atomic_write_json` / :func:`read_json` — tmp-write, fsync, rename,
  directory-fsync checkpoints.  ``rename`` is atomic on POSIX, so a reader
  observes either the previous checkpoint or the new one, never a torn file;
  stale ``*.tmp`` leftovers from a crash are ignored (and reaped on the next
  successful write).
* :class:`RunLock` — a pid lock file guarding a run directory.  A lock held
  by a live process refuses the acquire; a lock left behind by a dead pid is
  taken over, so a SIGKILL'd orchestrator never bricks its run directory.

Every durability-relevant syscall path has a fault hook
(:mod:`repro.testing.faults`): ``journal_append`` can return ``"enospc"``
(the append raises :class:`OSError` with ``ENOSPC`` *before* writing),
``checkpoint_write`` can return ``"torn"`` (half the payload is written to
the tmp file and the rename is skipped — simulating a kill mid-write), and
``run_lock`` can return ``"stale_lock"`` (a dead-pid lock file is planted
before the acquire, forcing the takeover path).
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import json
import os
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.exceptions import OrchestrationError
from repro.testing import faults


def _fsync_dir(directory: str) -> None:
    """Flush directory metadata (the rename itself) to disk, best effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def _encode(record: Dict[str, Any]) -> str:
    """One journal line: compact JSON, stable key order, exact float repr.

    ``json`` serialises floats with ``repr``, which round-trips IEEE-754
    doubles exactly — the property that makes journalled trajectories
    bit-identical on resume.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JournalWriter:
    """Append-only JSON-lines journal, made durable by :meth:`sync`."""

    def __init__(self, path: str) -> None:
        self.path = path
        _cut_torn_tail(path)
        self._handle = open(path, "a", encoding="utf-8")
        self._dirty = False

    def append(self, record: Dict[str, Any]) -> None:
        """Write one record through to the OS; durable at the next :meth:`sync`.

        Raises ``OSError`` on a full disk.
        """
        directive = faults.fire("journal_append", path=self.path)
        if directive == "enospc":
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        self._handle.write(_encode(record) + "\n")
        self._handle.flush()
        self._dirty = True

    def sync(self) -> None:
        """``fsync`` every record appended since the last sync (no-op when none)."""
        if self._dirty:
            os.fsync(self._handle.fileno())
            self._dirty = False

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _cut_torn_tail(path: str) -> None:
    """Truncate ``path`` after its last newline, dropping a torn final line.

    Appending after an unterminated fragment would glue the next record onto
    it and turn a tolerated torn tail into mid-file corruption.
    """
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        data = handle.read()
        if not data.endswith(b"\n"):
            handle.truncate(data.rfind(b"\n") + 1)


def read_records(path: str) -> List[Dict[str, Any]]:
    """Read every whole record from a journal, dropping a torn trailing line.

    A torn line anywhere *except* the tail means the file was corrupted by
    something other than a crash mid-append and raises
    :class:`OrchestrationError` — resuming from a lying journal silently
    would be worse than failing loudly.
    """
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    # A whole record ends with its newline, so the final split element is
    # empty or the unterminated (torn) tail of an interrupted append.
    lines.pop()
    records: List[Dict[str, Any]] = []
    for position, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError:
            if position == len(lines) - 1:
                break  # torn trailing line from a crash mid-append
            raise OrchestrationError(
                f"journal {path} is corrupt at line {position + 1} "
                "(torn records are only tolerated at the tail)"
            )
    return records


def merge_journals(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Merge per-worker journals into one deterministic record stream.

    Each journal is read with :func:`read_records` independently, so the
    one-torn-trailing-line tolerance applies **per journal**: a shard worker
    SIGKILLed mid-append leaves a torn tail in *its* file, and that file is
    not the last one in merge order — the tolerance must travel with the
    file, not with the concatenation.  Records are ordered deterministically
    (sorted journal path, then in-file position).

    ``entity_done`` records are deduplicated by entity index — duplicated
    delivery is legal at this layer (a retransmit racing its original, a
    reassigned range completed twice) as long as the trajectories agree;
    the first copy in merge order wins.  ``worker`` and ``attempt`` may
    legitimately differ between copies and are not compared.  Conflicting
    trajectories for the same entity mean the bit-identity guarantee is
    already broken upstream and raise :class:`OrchestrationError` rather
    than silently assembling a curve from diverging trajectories.
    """
    merged: List[Dict[str, Any]] = []
    done: Dict[int, Dict[str, Any]] = {}
    for path in sorted(paths):
        for record in read_records(path):
            if record.get("type") == "entity_done":
                index = int(record["index"])
                previous = done.get(index)
                if previous is not None:
                    if previous.get("trajectory") != record.get("trajectory"):
                        raise OrchestrationError(
                            f"conflicting entity_done trajectories for entity "
                            f"{index} across merged journals (second copy in "
                            f"{path}); the per-entity seed derivation should "
                            "make duplicates identical — refusing to merge"
                        )
                    continue
                done[index] = record
            merged.append(record)
    return merged


def atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` to ``path`` atomically (tmp + fsync + rename).

    After this returns the file is durably the new payload; if the process
    dies anywhere inside, the previous file content is untouched and at most
    a ``*.tmp`` sibling is left behind (cleaned up by the next write and
    ignored by :func:`read_json`).
    """
    directive = faults.fire("checkpoint_write", path=path)
    tmp_path = path + ".tmp"
    data = _encode(payload)
    if directive == "torn":
        # Simulate a kill halfway through the tmp write: flush a prefix of
        # the payload, skip the rename, and die the way a SIGKILL would.
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(data[: max(1, len(data) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
        raise faults.FaultInjected(f"injected torn checkpoint write ({path})")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(tmp_path, path)
    _fsync_dir(os.path.dirname(path) or ".")


def read_json(path: str) -> Optional[Dict[str, Any]]:
    """Read an atomic-write checkpoint; ``None`` when it does not exist.

    ``*.tmp`` leftovers are never read — they are, by construction, the
    possibly-torn half of a write that did not commit.
    """
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.loads(handle.read())


@contextlib.contextmanager
def _directory_mutex(path: str) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path``'s directory for the block.

    Serializes every acquirer's check-and-take step.  The kernel drops the
    lock when its holder exits, so a crash inside the block leaves nothing
    stale behind, and the directory itself carries the lock: no extra file.
    """
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the flock


class RunLock:
    """Pid lock file guarding a run directory against concurrent writers.

    ``acquire`` refuses when the recorded pid is alive and takes over when it
    is dead (a crashed orchestrator must not brick its run directory).  The
    whole probe — create, read the holder, judge it, replace a stale lock —
    runs under an exclusive ``flock`` on the run directory, so two racing
    acquirers serialize: the first takes over a dead-pid lock and writes its
    own pid before the second looks, and the second refuses with the live
    winner's pid.  (Renaming the stale file away without that mutex is not
    enough: the slower racer can rename away the winner's *fresh* lock.)
    ``release`` only removes the lock when it still belongs to this process.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._owned = False

    def acquire(self) -> None:
        directive = faults.fire("run_lock", path=self.path)
        if directive == "stale_lock":
            # Plant a lock from a guaranteed-dead pid so the takeover path
            # runs deterministically under test.
            atomic_write_json(self.path, {"pid": _dead_pid()})
        with _directory_mutex(self.path):
            if self._try_create():
                return
            holder_pid = self._holder_pid()
            if holder_pid == os.getpid():
                self._owned = True  # re-entrant acquire by the same process
                return
            if holder_pid is not None and holder_pid > 0 and _pid_alive(holder_pid):
                raise OrchestrationError(
                    f"run directory is locked by live process {holder_pid} "
                    f"({self.path}); refusing concurrent access"
                )
            # The holder is dead, the lock is gone (released since the
            # create), or it is unreadable.  Acquirers write their pid under
            # the mutex, so an unreadable lock is debris of a crash mid-write,
            # never a creator in flight: stale either way.
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            if not self._try_create():
                raise OrchestrationError(
                    f"could not acquire run lock {self.path}: a writer that "
                    f"bypasses the directory lock recreated it"
                )

    def _try_create(self) -> bool:
        """Atomically create the lock file; ``True`` when this process now owns it."""
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, (_encode({"pid": os.getpid()}) + "\n").encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        self._owned = True
        return True

    def _holder_pid(self) -> Optional[int]:
        """The pid recorded in the lock file; ``None`` when missing or unreadable."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.loads(handle.read())
            return int(payload.get("pid", -1))
        except (OSError, ValueError):
            return None

    def release(self) -> None:
        if not self._owned:
            return
        self._owned = False
        holder = read_json(self.path)
        if holder is not None and int(holder.get("pid", -1)) == os.getpid():
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "RunLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we could signal."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - live but not ours
        return True
    return True


def _dead_pid() -> int:
    """A pid that is certainly not a live process (for the stale-lock fault)."""
    child = os.fork()
    if child == 0:
        os._exit(0)
    os.waitpid(child, 0)
    return child
