"""The mixed-tenant service workload.

``crowdfusion serve --workers 2`` runs in a subprocess with the default
parallel threshold.  Two client connections drive it in a closed loop (each
sends its next request only after the previous reply):

* connection A cycles small tenants, Book-entity priors whose candidate
  scans stay serial;
* connection B cycles large tenants of 40 facts x 2^17 support rows, whose
  every greedy iteration clears the 2^22 threshold and is dispatched to the
  server's shared ``EvaluatorPool``; every ``POSTERIOR_EVERY`` large rounds
  it also reads one large tenant's whole posterior.

The measured unit is a segment: one such cycle on connection B, with
connection A running small rounds until B's cycle ends.

A round is ``select_next(k=3)``, answers from the tenant's own
``SimulatedPlatform``, then ``post_answers``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import get_selector
from repro.core.selection.session import RefinementSession
from repro.crowdsim import SimulatedPlatform, WorkerPool
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution
from repro.evaluation.experiment import build_problems
from repro.fusion import ModifiedCRH
from repro.service.api import ServiceError
from repro.service.client import RetryPolicy, ServiceClient

from host import STALL_TEXT, ref_rate, reference_s
from spans import Patches, Tracer, percentile, tail, traced

SMALL_BOOKS = 80
SMALL_MAX_FACTS = 10
LARGE_TENANTS = 2
LARGE_FACTS = 40
LARGE_ROWS = 1 << 17
K = 3
PC = 0.85
POSTERIOR_EVERY = 10
SELECTOR = "greedy_prune_pre"
#: Budgets no measured window can exhaust, so every round selects K tasks.
BUDGET = 1 << 30
SETUP_REPEATS = 3
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
GROUP_GRACE_S = 5.0
_LISTENING = re.compile(r"listening on \S+?:(\d+)")


@dataclass
class Tenant:
    name: str
    large: bool
    distribution: JointDistribution
    platform: SimulatedPlatform
    session_id: str = ""
    #: (task ids, answers) of every round the server accepted, for the replay.
    history: List[Tuple[Tuple[str, ...], Any]] = field(default_factory=list)


def make_tenants(seed: int, tracer: Optional[Tracer]) -> List[Tenant]:
    """Small Book-entity tenants and large scale tenants, all from ``seed``."""

    def span(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    with span("setup.corpus"):
        corpus = generate_book_corpus(
            BookCorpusConfig(
                num_books=SMALL_BOOKS, num_sources=16, max_sources_per_book=12, seed=seed
            )
        )
    patches = Patches()
    if tracer is not None:
        patches.wrap(ModifiedCRH, "run", lambda f: traced(tracer, "setup.fusion", f))
    with patches, span("setup.problems"):
        problems = build_problems(
            corpus.database,
            corpus.gold,
            ModifiedCRH(),
            difficulties=corpus.difficulties,
            max_facts_per_entity=SMALL_MAX_FACTS,
        )
    tenants = []
    for index, problem in enumerate(problems):
        tenants.append(
            Tenant(
                name=problem.entity,
                large=False,
                distribution=problem.prior,
                platform=_platform(problem.gold, seed * 7919 + index),
            )
        )
    with span("setup.large_inputs"):
        for index in range(LARGE_TENANTS):
            distribution = generate_scale_distribution(
                ScaleCorpusConfig(
                    num_facts=LARGE_FACTS, support_size=LARGE_ROWS, seed=seed * 31 + index
                )
            )
            rng = np.random.default_rng(seed * 131 + index)
            gold = {
                fact_id: bool(value)
                for fact_id, value in zip(
                    distribution.fact_ids, rng.integers(0, 2, len(distribution.fact_ids))
                )
            }
            tenants.append(
                Tenant(
                    name=f"large{index}",
                    large=True,
                    distribution=distribution,
                    platform=_platform(gold, seed * 104729 + index),
                )
            )
    return tenants


def _platform(gold: Dict[str, bool], seed: int) -> SimulatedPlatform:
    return SimulatedPlatform(
        ground_truth=gold, workers=WorkerPool.homogeneous(size=25, accuracy=PC, seed=seed)
    )


# -- the server subprocess ----------------------------------------------------------------


class Server:
    """``crowdfusion serve`` in its own session, stopped on its SIGINT path."""

    def __init__(self, root: str, out_dir: str, tag: str) -> None:
        self.stdout_path = os.path.join(out_dir, f"serve-{os.getpid()}-{tag}.out")
        self.stderr_path = os.path.join(out_dir, f"serve-{os.getpid()}-{tag}.err")
        self.stopped = False
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        with open(self.stdout_path, "w") as stdout, open(self.stderr_path, "w") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "2"],
                cwd=root,
                env=env,
                stdout=stdout,
                stderr=stderr,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.stdout_path) as handle:
                match = _LISTENING.search(handle.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        with open(self.stderr_path) as handle:
            detail = handle.read()[-2000:]
        raise RuntimeError(f"server did not start:\n{detail}")

    def stop(self) -> Dict[str, int]:
        """SIGINT, wait, then count stalls and any process left in its group."""
        if self.stopped:
            return {"forced_kills": 0, "leftover_groups": 0, "stalls": 0}
        self.stopped = True
        forced = 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                forced = 1
                self.process.kill()
                self.process.wait()
        # Helpers of the server (pool workers, the shared-memory resource
        # tracker) leave its process group shortly after it exits; whatever
        # is still there after the grace period is counted and killed.
        leftover = 0
        deadline = time.monotonic() + GROUP_GRACE_S
        try:
            while True:
                os.killpg(self.process.pid, 0)
                if time.monotonic() >= deadline:
                    leftover = 1
                    os.killpg(self.process.pid, signal.SIGKILL)
                    break
                time.sleep(0.02)
        except ProcessLookupError:
            pass
        with open(self.stderr_path) as handle:
            stalls = sum(1 for line in handle if STALL_TEXT in line)
        os.unlink(self.stdout_path)
        os.unlink(self.stderr_path)
        return {"forced_kills": forced, "leftover_groups": leftover, "stalls": stalls}


# -- the workload -------------------------------------------------------------------------


class ServiceWorkload:
    def __init__(self, root: str, seed: int, out_dir: str, health) -> None:
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.health = health
        self.leftover = 0

    def _stop(self, server: Server) -> None:
        outcome = server.stop()
        self.health.server_stalls += outcome["stalls"]
        self.health.add_recovery({"server_forced_kills": outcome["forced_kills"]})
        self.leftover += outcome["leftover_groups"]

    async def _create(self, client: ServiceClient, tenants: List[Tenant]) -> None:
        for tenant in tenants:
            created = await client.create_session(
                tenant.distribution, CrowdModel(PC), BUDGET, SELECTOR
            )
            tenant.session_id = created.session_id

    def _boot(self, loop, tenants: List[Tenant], tag: str, tracer: Optional[Tracer]):
        """Boot a server and create every session; return (server, clients, seconds)."""

        def span(name: str):
            return tracer.span(name) if tracer is not None else contextlib.nullcontext()

        if tracer is not None:
            tracer.unit = f"setup{tag}"
        started = time.perf_counter()
        with span("setup.boot"):
            server = Server(self.root, self.out_dir, tag)
        try:
            clients = loop.run_until_complete(self._connect(server.port))
            with span("setup.sessions"):
                loop.run_until_complete(self._create(clients[0], tenants))
        except BaseException:
            self._stop(server)
            raise
        return server, clients, time.perf_counter() - started

    async def _connect(self, port: int) -> List[ServiceClient]:
        no_retry = RetryPolicy(max_retries=0)
        return [
            await ServiceClient.connect("127.0.0.1", port, retry=no_retry) for _ in range(2)
        ]

    def run(self, seconds: float, trace: bool, tracer: Tracer) -> Dict[str, Any]:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            return self._run(loop, seconds, trace, tracer)
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def _run(self, loop, seconds: float, trace: bool, tracer: Tracer) -> Dict[str, Any]:
        tracer.unit = "inputs"
        tenants = make_tenants(self.seed, tracer if trace else None)
        small = [t for t in tenants if not t.large]
        large = [t for t in tenants if t.large]

        setup_times = []
        for repeat in range(SETUP_REPEATS):
            server, clients, seconds_taken = self._boot(
                loop, tenants, str(repeat), tracer if trace else None
            )
            setup_times.append(seconds_taken)
            if repeat < SETUP_REPEATS - 1:
                try:
                    loop.run_until_complete(_close_all(clients))
                finally:
                    self._stop(server)

        # One untimed round per tenant first: every session attaches to the
        # shared pool and the pool forks before the window opens.
        warmup = _Recorder(None)
        record = _Recorder(tracer if trace else None)
        rates: List[float] = []
        wall_rates: List[float] = []
        try:
            never = asyncio.Event()
            loop.run_until_complete(
                asyncio.gather(
                    warmup.loop(clients[0], small, "small", never, len(small)),
                    warmup.loop(clients[1], large, "large", never, len(large)),
                )
            )
            # The server is idle between segments, so a reference-speed probe
            # can bracket each one.
            window_end = time.perf_counter() + seconds
            while len(rates) < 2 or time.perf_counter() < window_end:
                gc.collect()
                ref_before = reference_s()
                done_before = record.finished
                started = time.perf_counter()
                loop.run_until_complete(record.segment(clients, small, large))
                wall = time.perf_counter() - started
                ref_after = reference_s()
                rounds = record.finished - done_before
                rates.append(ref_rate(rounds, wall, ref_before, ref_after))
                wall_rates.append(rounds / wall)
            metrics = loop.run_until_complete(clients[0].metrics())
            for client in clients:
                self.health.add_recovery(
                    {"client_retries": client.retries, "client_reconnects": client.reconnects}
                )
            loop.run_until_complete(_close_all(clients))
        finally:
            self._stop(server)

        self.health.add_recovery(metrics.get("recovery", {}))
        oracle_started = time.perf_counter()
        mismatch, serial_select_ms = replay(tenants)
        oracle_s = time.perf_counter() - oracle_started
        result: Dict[str, Any] = {
            "correct": mismatch is None,
            "mismatch": mismatch,
            "attempted": warmup.requests + record.requests,
            "failed": warmup.failed + record.failed,
            "failures": record.failure_kinds,
            "setup_times_s": setup_times,
            "oracle_s": oracle_s,
            "rounds": {"small": len(record.rounds["small"]), "large": len(record.rounds["large"])},
            "end_to_end": {
                "setup_s": statistics.median(setup_times),
                "rounds_per_ref_s": statistics.median(rates),
            },
            "rounds_per_wall_s": statistics.median(wall_rates),
            "ref_rates": rates,
            "wall_rates": wall_rates,
            "latency_ms": record.latency_summary(),
            "server_metrics": metrics,
        }
        if trace:
            result["per_layer"] = self._layers(record, warmup, metrics, tracer, serial_select_ms)
        return result

    def _layers(self, record, warmup, metrics, tracer: Tracer,
                serial_select_ms) -> Dict[str, Any]:
        pools = metrics.get("pools", {}).get("per_pool", [])
        dispatches = sum(pool["dispatches"] for pool in pools)
        reforks = sum(pool["reforks"] for pool in pools)
        # The server's dispatch counter includes the warm-up rounds.
        large_selects = len(record.selects["large"]) + len(warmup.selects["large"])
        client_select = percentile(record.selects["small"] + record.selects["large"], 0.5)
        server_select = metrics["selections"]["latency"]["p50_ms"] or 0.0
        merges = metrics["merges"]
        setup_units = [f"setup{i}" for i in range(SETUP_REPEATS)]
        setup_table = tracer.self_times(setup_units)
        inputs = tracer.self_times(["inputs"])
        summary = record.latency_summary()
        traced_units = ["traced"]
        table = tracer.self_times(traced_units)
        wall = record.traced_wall_s
        attributed = sum(
            table.get(name, {}).get("self_s", 0.0)
            for name in ("service.select", "crowd", "service.post")
        )
        untraced = record.round_ms["untraced"]
        traced = record.round_ms["traced"]
        layers = {
            "setup.corpus_s": inputs.get("setup.corpus", {}).get("busy_s", 0.0),
            "setup.fusion_s": inputs.get("setup.fusion", {}).get("busy_s", 0.0),
            "setup.problems_s": inputs.get("setup.problems", {}).get("self_s", 0.0),
            "setup.sessions_s": (
                setup_table.get("setup.sessions", {}).get("busy_s", 0.0) / SETUP_REPEATS
            ),
            "setup.boot_s": setup_table.get("setup.boot", {}).get("busy_s", 0.0) / SETUP_REPEATS,
            "selection.calls": metrics["selections"]["count"],
            "crowd.calls": table.get("crowd", {}).get("calls", 0),
            "crowd.busy_s": table.get("crowd", {}).get("busy_s", 0.0),
            "merge.calls": merges["count"],
            "service.client_select_ms_p50": client_select,
            "service.server_select_ms_p50": server_select,
            "service.hop_ms_p50": client_select - server_select,
            "service.merges_per_batch": (
                merges["count"] / merges["batches"] if merges["batches"] else 0.0
            ),
            "service.posterior_ms_p50": percentile(record.posteriors, 0.5),
            "service.round_small_p50_ms": summary["small"]["p50_ms"],
            "service.round_small_tail_ms": summary["small"]["tail_ms"],
            "service.round_small_tail_pct": summary["small"]["tail_pct"],
            "service.round_small_n": summary["small"]["n"],
            "service.round_large_p50_ms": summary["large"]["p50_ms"],
            "service.round_large_tail_ms": summary["large"]["tail_ms"],
            "service.round_large_tail_pct": summary["large"]["tail_pct"],
            "service.round_large_n": summary["large"]["n"],
            "pool.dispatches": dispatches,
            "pool.dispatches_per_select": dispatches / large_selects if large_selects else 0.0,
            "pool.reforks": reforks,
            "pool.serial_select_ms_p50": percentile(serial_select_ms, 0.5),
            "trace.coverage": attributed / wall if wall else 0.0,
            "trace.unattributed_s": wall - attributed,
            "trace.overhead_ratio": (
                statistics.median(traced) / statistics.median(untraced)
                if traced and untraced else 0.0
            ),
            "trace.base_ms": statistics.median(untraced) if untraced else 0.0,
        }
        rows = {
            name: dict(row) for name, row in sorted(table.items()) if name != "round"
        }
        rows["(unattributed)"] = {"calls": 0, "busy_s": 0.0, "self_s": wall - attributed}
        return {"metrics": layers, "layer_table": rows, "per": "run window"}


async def _close_all(clients: List[ServiceClient]) -> None:
    for client in clients:
        await client.close()


class _Recorder:
    """Client-side timings of the closed loops.

    In a traced run every other cycle over a connection's tenants is traced
    (spans around each client call and the crowd step), so traced and
    untraced rounds come from the same window and their median ratio is the
    tracing overhead.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.rounds: Dict[str, List[float]] = {"small": [], "large": []}
        self.selects: Dict[str, List[float]] = {"small": [], "large": []}
        self.posteriors: List[float] = []
        self.round_ms: Dict[str, List[float]] = {"traced": [], "untraced": []}
        self.requests = 0
        self.failed = 0
        self.failure_kinds: Dict[str, int] = {}
        self.traced_wall_s = 0.0
        self.finished = 0
        self.position: Dict[str, int] = {}

    def _span(self, name: str, on: bool):
        return self.tracer.span(name) if on else contextlib.nullcontext()

    async def loop(self, client: ServiceClient, tenants: List[Tenant], kind: str,
                   stop: asyncio.Event, limit: Optional[int] = None) -> None:
        """Closed-loop rounds over ``tenants`` until ``stop`` is set or ``limit`` rounds."""
        rounds = 0
        while not stop.is_set() and rounds != limit:
            rounds += 1
            position = self.position[kind] = self.position.get(kind, 0) + 1
            tenant = tenants[position % len(tenants)]
            # Whole cycles over the tenants alternate between traced and
            # untraced, so every tenant contributes to both sides.
            traced_now = self.tracer is not None and (position // len(tenants)) % 2 == 1
            if traced_now:
                self.tracer.unit = "traced"
            started = time.perf_counter()
            try:
                with self._span("round", traced_now):
                    with self._span("service.select", traced_now):
                        self.requests += 1
                        reply = await client.select_next(tenant.session_id, batch=K)
                    selected = time.perf_counter()
                    if not reply.task_ids:
                        continue
                    with self._span("crowd", traced_now):
                        answers = tenant.platform.collect(reply.task_ids)
                    with self._span("service.post", traced_now):
                        self.requests += 1
                        await client.post_answers(tenant.session_id, answers)
            except ServiceError as error:
                self._failure(error)
                continue
            finished = time.perf_counter()
            self.finished += 1
            tenant.history.append((tuple(reply.task_ids), answers))
            self.rounds[kind].append((finished - started) * 1000.0)
            self.selects[kind].append((selected - started) * 1000.0)
            if traced_now:
                self.traced_wall_s += finished - started
            if kind == "small":
                self.round_ms["traced" if traced_now else "untraced"].append(
                    (finished - started) * 1000.0
                )

    async def posterior(self, client: ServiceClient, tenant: Tenant) -> None:
        started = time.perf_counter()
        try:
            self.requests += 1
            await client.get_posterior(tenant.session_id)
        except ServiceError as error:
            self._failure(error)
            return
        self.posteriors.append((time.perf_counter() - started) * 1000.0)

    async def segment(self, clients: List[ServiceClient], small: List[Tenant],
                      large: List[Tenant]) -> None:
        """One measured unit: ``POSTERIOR_EVERY`` large rounds and a posterior read
        on connection B, while connection A runs small rounds until B is done."""
        stop = asyncio.Event()

        async def large_cycle() -> None:
            try:
                await self.loop(clients[1], large, "large", stop, POSTERIOR_EVERY)
                position = self.position["large"]
                last = large[position % len(large)]
                traced_now = self.tracer is not None and (position // len(large)) % 2 == 1
                if traced_now:
                    self.tracer.unit = "traced"
                with self._span("service.posterior", traced_now):
                    await self.posterior(clients[1], last)
            finally:
                stop.set()

        await asyncio.gather(self.loop(clients[0], small, "small", stop), large_cycle())

    def _failure(self, error: ServiceError) -> None:
        self.failed += 1
        name = type(error).__name__
        self.failure_kinds[name] = self.failure_kinds.get(name, 0) + 1

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        summary = {}
        for kind, values in self.rounds.items():
            pct, value = tail(values)
            summary[kind] = {
                "n": len(values),
                "p50_ms": percentile(values, 0.5),
                "tail_pct": pct,
                "tail_ms": value,
            }
        return summary


def replay(tenants: List[Tenant]) -> Tuple[Optional[str], List[float]]:
    """Each tenant's task sequence against a standalone serial session replay.

    Returns the first mismatch (``None`` when every sequence agrees) and the
    replay's serial select times of the large tenants, in milliseconds.
    """
    selector = get_selector(SELECTOR)
    serial_ms: List[float] = []
    for tenant in tenants:
        session = RefinementSession(tenant.distribution, CrowdModel(PC))
        for round_index, (task_ids, answers) in enumerate(tenant.history):
            k = min(K, session.num_facts)
            started = time.perf_counter()
            expected = tuple(selector.select_with_session(session, k).task_ids)
            if tenant.large:
                serial_ms.append((time.perf_counter() - started) * 1000.0)
            if expected != task_ids:
                return (
                    f"tenant {tenant.name} round {round_index}: service selected "
                    f"{task_ids}, standalone session selected {expected}"
                ), serial_ms
            session.merge(answers)
    return None, serial_ms
