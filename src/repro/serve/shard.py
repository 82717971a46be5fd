"""One MSERVE shard: a resident worker with a warm-start snapshot pool.

A shard owns real simulation state and *keeps* it between requests:

* a **machine cache** — one built machine per
  :attr:`~repro.serve.api.JobSpec.config_key` (machine shape + program);
* a **snapshot pool** — the machine's architectural state right after
  boot + program load, captured once with ``take_snapshot``.  The first
  request for a config pays the full boot (build machine, load
  mroutines + MAS analysis, assemble, load — the *cold* path); every
  later request restores the pooled snapshot instead (*warm*), which
  the serving benchmark shows is well over 2x faster.  A restore
  rewrites only the RAM pages that differ, so the machine keeps the
  code compiled from every other page.

Execution is **preemptive**: each dispatch runs at most one *quantum*
of instructions through the engines' exact-budget stepping.  A job that
neither halts nor exhausts its budget comes back ``preempted`` with a
snapshot capsule; the fleet requeues it behind waiting jobs (so short
requests never starve) and may resume it on a *different* shard —
snapshot transport is the migration mechanism, and bit-identity across
it is guaranteed by the same snapshot completeness the MFI recovery
layer depends on.

Console output is device state and deliberately outside snapshots, so
the job record accumulates each quantum's console delta host-side and
the final digest is computed over the accumulated text.

The loop function (:func:`shard_loop`) is a top-level picklable
callable runnable under :class:`repro.parallel.WorkerHost` in either
``process`` mode (the real fleet) or ``thread`` mode (tests).
"""

from __future__ import annotations

import traceback
from time import perf_counter

from repro.errors import ReproError
from repro.parallel import WorkerHost
from repro.serve.api import JobSpec, architectural_digest, digest_hex, error_dict

#: Default preemption quantum, in retired guest instructions.
DEFAULT_QUANTUM = 50_000

#: Pooled machines per shard before the least-recent config is evicted.
POOL_CAPACITY = 32


class ShardWorker:
    """The per-shard execution engine (usable inline in tests)."""

    def __init__(self, shard_id, pool_capacity: int = POOL_CAPACITY):
        self.shard_id = shard_id
        #: config_key -> (machine, registry, boot snapshot); insertion
        #: order doubles as LRU order.
        self._pool = {}
        self.stats = {
            "dispatches": 0, "cold_boots": 0, "warm_starts": 0,
            "resumes": 0, "pool_evictions": 0,
        }
        self._capacity = pool_capacity

    # -- machine acquisition ------------------------------------------------
    def _boot(self, spec: JobSpec):
        """Cold path: build the machine, assemble + load the program."""
        from repro.machine.builder import build_metal_machine
        from repro.profile.registry import MetricsRegistry
        from repro.profile.workloads import WORKLOADS, build_workload

        if spec.kind == "workload" and spec.name in WORKLOADS:
            machine = build_workload(spec.name, engine=spec.engine)
        else:
            machine = build_metal_machine([], engine=spec.engine,
                                          with_caches=False)
        program = machine.assemble(spec.source, base=spec.base)
        machine.load(program)
        machine.core.pc = program.symbols.get("_start", spec.base)
        return machine, MetricsRegistry(machine)

    def acquire(self, spec: JobSpec, resume=None):
        """``(machine, registry, warm, setup_seconds)`` ready to run.

        Warm: restore the pooled machine to *resume* (a preempted job's
        capsule) or else to its boot snapshot.  Cold: boot, seed the
        pool so the next request for this config is warm, then restore
        *resume* if given.  Either way the machine is restored once,
        and only the RAM pages that differ are rewritten, so the code
        compiled from every other page stays warm.
        """
        key = spec.config_key
        t0 = perf_counter()
        entry = self._pool.pop(key, None)
        warm = entry is not None
        if warm:
            machine, registry, boot_snap = entry
            machine.restore(boot_snap if resume is None else resume)
            self._pool[key] = entry          # refresh LRU position
            self.stats["warm_starts"] += 1
        else:
            machine, registry = self._boot(spec)
            self._pool[key] = (machine, registry, machine.take_snapshot())
            while len(self._pool) > self._capacity:
                self._pool.pop(next(iter(self._pool)))
                self.stats["pool_evictions"] += 1
            if resume is not None:
                machine.restore(resume)
            self.stats["cold_boots"] += 1
        if resume is not None:
            self.stats["resumes"] += 1
        machine.console.clear_output()
        return machine, registry, warm, perf_counter() - t0

    # -- one dispatch -------------------------------------------------------
    def execute(self, job: dict) -> dict:
        """Run one quantum of *job* and classify the outcome.

        *job*: ``{"spec": JobSpec, "quantum": int, "budget_left": int,
        "resume": MachineSnapshot | None, "console": str,
        "cycles_done": int}``.  Returns the response message the fleet
        consumes (kind ``done`` | ``preempted`` | ``failed``).
        """
        spec = job["spec"]
        self.stats["dispatches"] += 1
        response = {
            "kind": "failed", "job_id": spec.job_id, "shard": self.shard_id,
            "warm": False, "resumed": job.get("resume") is not None,
            "setup_seconds": 0.0, "run_seconds": 0.0, "instructions": 0,
            "metrics": None, "console": job.get("console", ""),
            "cycles_done": job.get("cycles_done", 0),
            "result": None, "error": None, "snapshot": None,
        }
        try:
            # Migration/continuation: the preempted job's capsule
            # (shipped via the queue) replaces the boot state.
            machine, registry, warm, setup = self.acquire(
                spec, job.get("resume"))
            response["warm"] = warm
            response["setup_seconds"] = setup

            console_mark = len(machine.console.output)
            quantum = min(job["quantum"], job["budget_left"])
            before = registry.snapshot()
            t0 = perf_counter()
            guest_exc = None
            try:
                result = machine.run_quantum(quantum)
            except ReproError as exc:
                guest_exc = exc
                result = None
            response["run_seconds"] = perf_counter() - t0
            delta = registry.snapshot().delta(before)
            response["metrics"] = delta.to_dict()
            response["instructions"] = delta.instret
            response["cycles_done"] += delta.cycles
            console = (response["console"]
                       + machine.console.output[console_mark:].decode("latin-1"))
            response["console"] = console

            if guest_exc is not None:
                response["kind"] = "done"
                response["error"] = error_dict(
                    "guest_error", f"{type(guest_exc).__name__}: {guest_exc}")
            elif machine.core.halted:
                digest = architectural_digest(machine, console_text=console)
                response["kind"] = "done"
                response["result"] = {
                    "stop_reason": "halt",
                    "instructions": machine.core.instret,
                    "cycles": response["cycles_done"],
                    "output": console,
                    "digest": digest,
                    "digest_sha": digest_hex(digest),
                }
            elif job["budget_left"] - delta.instret <= 0:
                response["kind"] = "done"
                response["error"] = error_dict(
                    "budget_exhausted",
                    f"no halt after {spec.max_instructions} instructions")
            else:
                response["kind"] = "preempted"
                response["snapshot"] = machine.take_snapshot()
        except Exception as exc:              # noqa: BLE001 — shard must survive
            response["kind"] = "failed"
            response["error"] = error_dict(
                "shard_failure",
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return response


def shard_loop(shard_id, request_q, response_q) -> None:
    """Resident worker loop (top-level: picklable for process mode)."""
    worker = ShardWorker(shard_id)
    while True:
        message = request_q.get()
        if message == WorkerHost.STOP:
            return
        response_q.put(worker.execute(message))
