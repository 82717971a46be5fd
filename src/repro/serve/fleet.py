"""The MSERVE fleet manager: scheduling, preemption, migration, metrics.

Topology: one FIFO run queue feeding N resident shards
(:class:`~repro.parallel.WorkerHost` around
:func:`repro.serve.shard.shard_loop`).  A dispatcher thread pairs the
head of the queue with whichever shard reports idle; one collector
thread per shard drains its response queue.

Scheduling policy — quantum round-robin:

* every dispatch runs at most ``quantum`` instructions on the shard;
* a job that comes back ``preempted`` re-enters the queue at the
  *back*, so a long job cycles while short jobs admitted after it
  complete in their first quantum — no starvation;
* a resumed job runs on whichever shard frees up first.  When that is
  a different shard than last time, the job has **migrated**: its
  snapshot capsule (the same machinery MFI recovery trusts) carries
  the entire architectural state across the process boundary, and the
  final digest is bit-identical to an unpreempted run.

A shard that dies (its process killed or crashed) is noticed by its
collector at the next empty poll: the job it was running resolves with
a ``shard_failure`` error, and the shard never re-enters the idle pool,
so the other shards keep serving.  One that dies while idle is dropped
when the dispatcher takes it from the pool; once no shard is alive,
each request resolves with ``shard_failure``.

Observability: every shard response carries the
:class:`~repro.profile.registry.MetricsRegistry` delta for its quantum.
The fleet accumulates one running snapshot per shard and merges them
with :meth:`Snapshot.merge` — shard-id namespacing, no key collisions —
into the fleet snapshot ``/metrics`` serves: aggregate MIPS,
machines-per-second, per-workload tier-2 dispatch share, queue depth
and request latency percentiles.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import perf_counter

from repro.parallel import WorkerHost
from repro.profile.registry import Snapshot
from repro.serve.api import DEFAULT_BUDGET, JobSpec
from repro.serve.shard import DEFAULT_QUANTUM, shard_loop

#: Per-workload latency samples kept for the percentile estimates.
LATENCY_WINDOW = 8192


@dataclass
class FleetConfig:
    """Knobs for one serving fleet."""

    shards: int = 2
    #: ``process`` (real parallelism) or ``thread`` (in-process; tests).
    mode: str = "process"
    quantum: int = DEFAULT_QUANTUM
    default_budget: int = DEFAULT_BUDGET


@dataclass
class _Job:
    """Manager-side state of one in-flight request."""

    spec: JobSpec
    future: Future
    budget_left: int
    snapshot: object = None
    console: str = ""
    cycles_done: int = 0
    instructions_done: int = 0
    preemptions: int = 0
    migrations: int = 0
    last_shard: object = None
    submitted: float = field(default_factory=perf_counter)


class Fleet:
    """N shards + scheduler + fleet metrics.  Start, submit, stop."""

    def __init__(self, config: FleetConfig = None):
        self.config = config or FleetConfig()
        if self.config.shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self._hosts = {}
        self._runq = queue_mod.Queue()       # job_ids ready to dispatch
        self._idle = queue_mod.Queue()       # shard ids ready for work
        self._jobs = {}
        self._running = {}                   # shard id -> job id it runs
        self._threads = []
        self._lock = threading.Lock()
        self._started = None
        self._stopping = False
        self.totals = {
            "submitted": 0, "completed": 0, "failed": 0,
            "preemptions": 0, "migrations": 0,
            "warm_starts": 0, "cold_boots": 0,
            "warm_setup_seconds": 0.0, "cold_setup_seconds": 0.0,
            "busy_seconds": 0.0, "instructions": 0,
        }
        self._latencies = []
        self._per_workload = {}
        self._per_shard = {s: Snapshot() for s in range(self.config.shards)}

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "Fleet":
        self._started = perf_counter()
        for shard_id in range(self.config.shards):
            host = WorkerHost(shard_id, shard_loop, mode=self.config.mode)
            self._hosts[shard_id] = host
            host.start()
            self._idle.put(shard_id)
            collector = threading.Thread(
                target=self._collect, args=(shard_id,), daemon=True,
                name=f"collector-{shard_id}")
            collector.start()
            self._threads.append(collector)
        dispatcher = threading.Thread(target=self._dispatch, daemon=True,
                                      name="dispatcher")
        dispatcher.start()
        self._threads.append(dispatcher)
        return self

    def stop(self) -> None:
        """Drain nothing — fail fast: pending futures get shard_failure."""
        self._stopping = True
        self._runq.put(None)                 # wake the dispatcher...
        self._idle.put(None)                 # ...wherever it is blocked
        for host in self._hosts.values():
            host.stop()
        with self._lock:
            pending = list(self._jobs.values())
            self._jobs.clear()
        for job in pending:
            if not job.future.done():
                job.future.set_result(_error_response(
                    job.spec, "shard_failure", "fleet stopped"))

    # -- submission ---------------------------------------------------------
    def submit(self, spec: JobSpec) -> Future:
        """Enqueue a validated job; resolve to the response dict."""
        if self._stopping:
            raise RuntimeError("fleet is stopping")
        job = _Job(spec=spec, future=Future(),
                   budget_left=spec.max_instructions)
        with self._lock:
            self._jobs[spec.job_id] = job
            self.totals["submitted"] += 1
        self._runq.put(spec.job_id)
        return job.future

    # -- scheduler threads --------------------------------------------------
    def _dispatch(self) -> None:
        while True:
            job_id = self._runq.get()
            if job_id is None or self._stopping:
                return
            with self._lock:
                job = self._jobs.get(job_id)
            if job is None:
                continue
            shard_id = self._live_idle_shard()
            if self._stopping:
                return
            if shard_id is None:
                self._fail(job_id, "no shard is alive")
                continue
            with self._lock:
                self._running[shard_id] = job_id
            self._hosts[shard_id].send({
                "spec": job.spec,
                "quantum": self.config.quantum,
                "budget_left": job.budget_left,
                "resume": job.snapshot,
                "console": job.console,
                "cycles_done": job.cycles_done,
            })

    def _live_idle_shard(self):
        """Take an idle shard, dropping any that died while idle; None
        when the fleet stops or no shard is left alive."""
        while True:
            try:
                shard_id = self._idle.get(timeout=0.5)
            except queue_mod.Empty:
                if any(host.alive for host in self._hosts.values()):
                    continue
                return None
            if shard_id is None or self._hosts[shard_id].alive:
                return shard_id

    def _collect(self, shard_id) -> None:
        host = self._hosts[shard_id]
        dead = False
        while True:
            try:
                response = host.responses.get(timeout=0.5)
            except queue_mod.Empty:
                if self._stopping:
                    return
                if dead or not host.alive:
                    # Keep polling: a job dispatched to the shard after
                    # it died is failed on a later pass.
                    dead = True
                    self._fail_running(shard_id)
                continue
            with self._lock:
                self._running.pop(shard_id, None)
            self._absorb(shard_id, response)
            self._idle.put(shard_id)

    def _fail_running(self, shard_id) -> None:
        """Fail the job a dead shard was running; the shard stays out
        of the idle pool."""
        with self._lock:
            job_id = self._running.pop(shard_id, None)
        self._fail(job_id, f"shard {shard_id} died")

    def _fail(self, job_id, message: str) -> None:
        """Resolve a job with ``shard_failure``."""
        with self._lock:
            job = self._jobs.pop(job_id, None)
            if job is None:
                return
            self.totals["failed"] += 1
        if not job.future.done():
            job.future.set_result(_error_response(
                job.spec, "shard_failure", message))

    # -- bookkeeping --------------------------------------------------------
    def _absorb(self, shard_id, response: dict) -> None:
        with self._lock:
            job = self._jobs.get(response["job_id"])
            if job is None:
                return
            self._account_quantum(shard_id, job, response)
            if response["kind"] == "preempted":
                job.snapshot = response["snapshot"]
                job.console = response["console"]
                job.cycles_done = response["cycles_done"]
                job.preemptions += 1
                self.totals["preemptions"] += 1
                if job.last_shard is not None and job.last_shard != shard_id:
                    job.migrations += 1
                    self.totals["migrations"] += 1
                job.last_shard = shard_id
                requeue = True
            else:
                del self._jobs[job.spec.job_id]
                requeue = False
                latency = perf_counter() - job.submitted
                self._latencies.append(latency)
                del self._latencies[:-LATENCY_WINDOW]
                if response["kind"] == "done" and response["error"] is None:
                    self.totals["completed"] += 1
                    self._workload_slot(job.spec)["completed"] += 1
                else:
                    self.totals["failed"] += 1
        if requeue:
            self._runq.put(job.spec.job_id)
        elif not job.future.done():
            job.future.set_result(_response_payload(job, response))

    def _account_quantum(self, shard_id, job, response: dict) -> None:
        """Merge one quantum's accounting (caller holds the lock)."""
        totals = self.totals
        job.budget_left -= response["instructions"]
        job.instructions_done += response["instructions"]
        totals["instructions"] += response["instructions"]
        totals["busy_seconds"] += (response["run_seconds"]
                                   + response["setup_seconds"])
        if not response["resumed"]:
            # Resumed quanta restore a job capsule, not a pool entry —
            # they stay out of the warm/cold setup comparison.
            if response["warm"]:
                totals["warm_starts"] += 1
                totals["warm_setup_seconds"] += response["setup_seconds"]
            else:
                totals["cold_boots"] += 1
                totals["cold_setup_seconds"] += response["setup_seconds"]
        slot = self._workload_slot(job.spec)
        slot["instructions"] += response["instructions"]
        if response["metrics"] is not None:
            delta = Snapshot.from_dict(response["metrics"])
            self._per_shard[shard_id] = self._per_shard[shard_id].add(delta)
            slot["jit_instructions"] += delta.counters.get(
                "jit_instructions", 0)
            slot["fast_instructions"] += delta.counters.get(
                "fast_instructions", 0)

    def _workload_slot(self, spec: JobSpec) -> dict:
        name = spec.name if spec.kind == "workload" else "<source>"
        return self._per_workload.setdefault(name, {
            "completed": 0, "instructions": 0,
            "jit_instructions": 0, "fast_instructions": 0,
        })

    # -- observability ------------------------------------------------------
    def metrics(self) -> dict:
        """The fleet snapshot ``GET /metrics`` serves (JSON-ready)."""
        with self._lock:
            wall = perf_counter() - (self._started or perf_counter())
            merged = Snapshot.merge(self._per_shard)
            latencies = sorted(self._latencies)
            totals = dict(self.totals)
            per_workload = {
                name: dict(slot, jit_share=(
                    slot["jit_instructions"] / slot["instructions"]
                    if slot["instructions"] else 0.0))
                for name, slot in sorted(self._per_workload.items())
            }
            queue_depth = self._runq.qsize()
            active = len(self._jobs)
        completed = totals["completed"]
        return {
            "shards": self.config.shards,
            "mode": self.config.mode,
            "quantum": self.config.quantum,
            "wall_seconds": wall,
            "requests": {
                "submitted": totals["submitted"],
                "completed": completed,
                "failed": totals["failed"],
                "active": active,
                "queue_depth": queue_depth,
                "preemptions": totals["preemptions"],
                "migrations": totals["migrations"],
                "warm_starts": totals["warm_starts"],
                "cold_boots": totals["cold_boots"],
            },
            "setup": {
                "warm_seconds_total": totals["warm_setup_seconds"],
                "cold_seconds_total": totals["cold_setup_seconds"],
                "warm_mean_seconds": _mean(totals["warm_setup_seconds"],
                                           totals["warm_starts"]),
                "cold_mean_seconds": _mean(totals["cold_setup_seconds"],
                                           totals["cold_boots"]),
            },
            "throughput": {
                "machines_per_second": completed / wall if wall else 0.0,
                "aggregate_mips": (totals["instructions"] / wall / 1e6
                                   if wall else 0.0),
                "busy_mips": (totals["instructions"]
                              / totals["busy_seconds"] / 1e6
                              if totals["busy_seconds"] else 0.0),
                "instructions": totals["instructions"],
            },
            "latency": {
                "count": len(latencies),
                "p50_seconds": _percentile(latencies, 0.50),
                "p99_seconds": _percentile(latencies, 0.99),
                "mean_seconds": (sum(latencies) / len(latencies)
                                 if latencies else 0.0),
            },
            "per_workload": per_workload,
            "fleet_snapshot": merged.to_dict(),
        }


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _percentile(ordered: list, q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _error_response(spec: JobSpec, kind: str, message: str) -> dict:
    from repro.serve.api import error_dict

    return {"status": "error", "job_id": spec.job_id,
            "error": error_dict(kind, message)}


def _response_payload(job: _Job, response: dict) -> dict:
    """The client-facing JSON for a finished job."""
    meta = {
        "job_id": job.spec.job_id,
        "workload": (job.spec.name if job.spec.kind == "workload" else None),
        "label": (job.spec.name if job.spec.kind == "source" else None),
        "shard": response["shard"],
        "warm": response["warm"] and job.preemptions == 0,
        "preemptions": job.preemptions,
        "migrations": job.migrations,
        "setup_seconds": response["setup_seconds"],
        "instructions": job.instructions_done,
    }
    if response["kind"] == "done" and response["error"] is None:
        return {"status": "ok", "result": response["result"], **meta}
    return {"status": "error", "error": response["error"], **meta}
