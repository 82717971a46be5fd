"""MSERVE request/response schema and result digests.

A request is JSON with either a named workload or an inline program::

    {"workload": "tight_loop", "iters": 20000}
    {"source": "_start:\\n    halt\\n", "base": 4096, "label": "mine"}

Optional knobs: ``max_instructions`` (total retirement budget across
preemption quanta) and ``engine`` (``functional``/``pipeline``).  The
front end validates and — for inline sources — assembles and MAS-lints
the program (:mod:`repro.serve.gate`) before anything reaches a shard;
failures come back as a structured error envelope::

    {"status": "error",
     "error": {"kind": "lint_rejected", "message": ..., "findings": [...]}}

Error kinds: ``bad_request`` (schema violations), ``assembly_error``,
``lint_rejected`` (findings carry the MAS diagnostic dict shape),
``guest_error`` (the program trapped/panicked on the shard),
``budget_exhausted`` (ran out of instruction budget before halting) and
``shard_failure`` (the simulator itself raised — never expected; the
smoke bench asserts zero).

A successful response carries the result *and its architectural
digest* — every register, the PC, RAM, console output, and (on Metal
machines) MRegs and MRAM — so a client can verify that a warm-started,
preempted, migrated run is bit-identical to a dedicated machine's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

#: Default total instruction budget per request.
DEFAULT_BUDGET = 2_000_000

#: Hard cap any request may ask for (keeps one request from pinning a
#: shard for minutes).
MAX_BUDGET = 50_000_000

#: Largest inline source accepted, in bytes.
MAX_SOURCE_BYTES = 256 * 1024

#: Default load base for inline sources (the CLI default everywhere).
DEFAULT_BASE = 0x1000


class ServeRejected(Exception):
    """Front-end rejection; carries the structured error envelope."""

    def __init__(self, error: dict):
        super().__init__(error.get("message", error.get("kind", "rejected")))
        self.error = error


def error_dict(kind: str, message: str, findings: list = None) -> dict:
    """The structured error payload every rejection path uses."""
    err = {"kind": kind, "message": message}
    if findings is not None:
        err["findings"] = findings
    return err


@dataclass(frozen=True)
class JobSpec:
    """One validated, shard-ready job (picklable: crosses the queue)."""

    job_id: str
    kind: str                  # "workload" | "source"
    name: str                  # workload name, or a label for sources
    source: str                # resolved assembly text (both kinds)
    base: int = DEFAULT_BASE
    iters: int = None          # named workloads only
    engine: str = "functional"
    max_instructions: int = DEFAULT_BUDGET

    @property
    def config_key(self) -> str:
        """Warm-pool key: same key ⇒ same machine shape + same program.

        Named workloads pool per ``(name, iters, engine)``; inline
        sources pool per content hash, so resubmitting the same program
        warm-starts too.
        """
        if self.kind == "workload":
            return f"workload:{self.name}:{self.iters}:{self.engine}"
        text = hashlib.sha256(self.source.encode()).hexdigest()[:16]
        return f"source:{text}:{self.base:#x}:{self.engine}"

    def to_dict(self) -> dict:
        return asdict(self)


def workload_names() -> tuple:
    """The six named MPROF workloads the server accepts."""
    from repro.profile.workloads import WORKLOADS

    return tuple(WORKLOADS)


def _is_int(value) -> bool:
    """A JSON integer: ``true``/``false`` parse to ``bool``, an ``int``
    subclass, and are not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_request(body: dict, job_id: str,
                  default_budget: int = DEFAULT_BUDGET) -> JobSpec:
    """Validate a ``POST /run`` body into a :class:`JobSpec`.

    Raises :class:`ServeRejected` with a ``bad_request`` error on any
    schema violation.  Inline sources still need the assembly/lint gate
    (:func:`repro.serve.gate.admit_source`) before dispatch.
    """
    if not isinstance(body, dict):
        raise ServeRejected(error_dict("bad_request", "body must be a JSON object"))
    workload = body.get("workload")
    source = body.get("source")
    if (workload is None) == (source is None):
        raise ServeRejected(error_dict(
            "bad_request", "give exactly one of 'workload' or 'source'"))

    engine = body.get("engine", "functional")
    if engine not in ("functional", "pipeline"):
        raise ServeRejected(error_dict(
            "bad_request", f"unknown engine {engine!r}"))
    budget = body.get("max_instructions", default_budget)
    if not _is_int(budget) or not 0 < budget <= MAX_BUDGET:
        raise ServeRejected(error_dict(
            "bad_request",
            f"max_instructions must be an int in (0, {MAX_BUDGET}]"))

    if workload is not None:
        from repro.profile.workloads import WORKLOADS, workload_source

        if workload not in WORKLOADS:
            raise ServeRejected(error_dict(
                "bad_request",
                f"unknown workload {workload!r} "
                f"(have: {', '.join(sorted(WORKLOADS))})"))
        iters = body.get("iters", WORKLOADS[workload].default_iters)
        if not _is_int(iters) or not 0 < iters <= 10_000_000:
            raise ServeRejected(error_dict(
                "bad_request", "iters must be an int in (0, 10000000]"))
        return JobSpec(
            job_id=job_id, kind="workload", name=workload,
            source=workload_source(workload, iters), iters=iters,
            engine=engine, max_instructions=budget)

    if not isinstance(source, str) or not source.strip():
        raise ServeRejected(error_dict(
            "bad_request", "source must be a non-empty string"))
    if len(source.encode()) > MAX_SOURCE_BYTES:
        raise ServeRejected(error_dict(
            "bad_request", f"source exceeds {MAX_SOURCE_BYTES} bytes"))
    base = body.get("base", DEFAULT_BASE)
    if not _is_int(base) or base < 0 or base % 4:
        raise ServeRejected(error_dict(
            "bad_request", "base must be a non-negative word-aligned int"))
    label = body.get("label", "user_program")
    if not isinstance(label, str) or len(label) > 120:
        raise ServeRejected(error_dict(
            "bad_request", "label must be a short string"))
    return JobSpec(
        job_id=job_id, kind="source", name=label, source=source,
        base=base, engine=engine, max_instructions=budget)


# ---------------------------------------------------------------------------
# Result digests
# ---------------------------------------------------------------------------

def architectural_digest(machine, console_text: str = None) -> dict:
    """Full architectural-state digest of *machine* after a run.

    Unlike the MFI campaign digest this hashes *every* register — a
    serving client has no per-workload result-register contract, so the
    whole architectural state is the result.  *console_text* overrides
    the machine's console (the fleet accumulates output across
    preemption quanta host-side, because device state deliberately
    stays out of snapshots).  Cycle/host counters are excluded: they
    are engine-lifetime values on a pooled machine, not job state.
    """
    core = machine.core
    digest = {
        "regs_sha": hashlib.sha256(
            b"".join(v.to_bytes(4, "little") for v in core.regs)).hexdigest(),
        "pc": core.pc,
        "halted": core.halted,
        "instret": core.instret,
        "ram_sha": hashlib.sha256(machine.ram.data).hexdigest(),
        "console": (machine.output if console_text is None else console_text),
    }
    if core.metal is not None:
        digest["in_metal"] = core.metal.in_metal
        digest["mregs_sha"] = hashlib.sha256(
            repr(core.metal.mregs.snapshot()).encode()).hexdigest()
        digest["mram_sha"] = hashlib.sha256(
            bytes(core.metal.mram.data) + bytes(core.metal.mram.code)
        ).hexdigest()
    return digest


def digest_hex(digest: dict) -> str:
    """One canonical hex string over a digest dict (stable key order)."""
    return hashlib.sha256(
        json.dumps(digest, sort_keys=True).encode()).hexdigest()
