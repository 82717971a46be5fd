"""The ``sim_functional`` and ``sim_pipeline`` workloads.

One process, one thread, ``MachineConfig()`` defaults (cache models on,
JIT as the default leaves it).  A job builds a fresh machine, assembles
and loads its program and runs it to halt; the preemptive-scheduler demo
never halts and runs to a fixed instruction count instead.
"""

from __future__ import annotations

from time import perf_counter

from repro.cpu.exceptions import Cause
from repro.cpu.stats import TcacheStats
from repro.machine.builder import MachineConfig, build_metal_machine
from repro.mcode.privilege import make_kernel_user_routines
from repro.mcode.uli import make_uli_routines
from repro.osdemo import scheduler as sched
from repro.osdemo.kernel import SYSCALL_SYMBOLS
from repro.osdemo.layout import MemoryLayout
from repro.profile.workloads import WORKLOADS, workload_source
from repro.serve.api import architectural_digest

from measure import REFERENCE_CALIBRATION_S, calibration_sample, \
    median, percentile, self_peak_rss_mib
from workload_gen import SCHEDULER, SIM_PROGRAMS, SimStream, iters_for

_TCACHE_FIELDS = tuple(TcacheStats.__dataclass_fields__)


def _simulated(machine, program: str) -> dict:
    """The simulated results one job is checked on."""
    core = machine.core
    out = {
        "digest": architectural_digest(machine),
        "instret": core.instret,
        "cycles": machine.cycles,
        "icache": [core.icache.stats.hits, core.icache.stats.misses],
        "dcache": [core.dcache.stats.hits, core.dcache.stats.misses],
    }
    stalls = getattr(machine.sim, "stalls", None)
    if stalls is not None:
        out["stalls"] = list(stalls)
    if program == SCHEDULER:
        out["switches"] = machine.read_word(sched.SCHED_SWITCHES)
    return out


def _build_scheduler(config: MachineConfig):
    """The steps of ``osdemo.scheduler.boot_scheduler_demo``, split so
    build, assembly and load are timed apart (the goldens come from
    ``boot_scheduler_demo`` itself, so any drift fails the check)."""
    layout = MemoryLayout()
    routines = (make_kernel_user_routines(layout.syscall_table,
                                          layout.fault_entry)
                + make_uli_routines(layout.irq_entry))
    config.extra_symbols = {**layout.symbols(), **SYSCALL_SYMBOLS,
                            **sched.SCHED_SYMBOLS}
    machine = build_metal_machine(routines, config=config)
    machine.route_cause(Cause.PRIVILEGE, "priv_fault")
    t_built = perf_counter()
    user = machine.assemble(sched.demo_processes(), base=layout.user_base)
    kernel = machine.assemble(
        sched.scheduler_kernel_source(), base=layout.kernel_base,
        extra_symbols={"PROC0_ENTRY": user.symbols["proc0"],
                       "PROC1_ENTRY": user.symbols["proc1"]})
    t_assembled = perf_counter()
    machine.load(user)
    machine.load(kernel)
    machine.core.pc = layout.kernel_base
    return machine, t_built, t_assembled


def run_job(program: str, size: int, engine: str) -> dict:
    """Build, load and run one job on the default config; returns its
    timings, simulated results and tcache counters."""
    config = MachineConfig(engine=engine)
    if program == SCHEDULER:
        t0 = perf_counter()
        machine, t1, t2 = _build_scheduler(config)
        t3 = perf_counter()
        machine.run(max_instructions=size, raise_on_limit=False)
    else:
        w = WORKLOADS[program]
        source = workload_source(program, iters_for(program, size))
        t0 = perf_counter()
        machine = build_metal_machine(list(w.routines), config=config)
        if w.setup is not None:
            w.setup(machine)
        t1 = perf_counter()
        image = machine.assemble(source)
        t2 = perf_counter()
        machine.load(image)
        machine.core.pc = image.symbols["_start"]
        t3 = perf_counter()
        machine.run(max_instructions=4 * size, raise_on_limit=False)
    t4 = perf_counter()
    tc = machine.perf.tcache
    return {
        "program": program, "size": size, "times": (t0, t1, t2, t3, t4),
        "halted": machine.core.halted,
        "tcache": {name: getattr(tc, name) for name in _TCACHE_FIELDS},
        **_simulated(machine, program),
    }


def reference_job(program: str, size: int, engine: str) -> dict:
    """Golden results: the reference interpreter (tcache off) on the
    default config, the scheduler booted by ``boot_scheduler_demo``."""
    config = MachineConfig(engine=engine, tcache=False)
    if program == SCHEDULER:
        machine = sched.boot_scheduler_demo(config=config)
        machine.run(max_instructions=size, raise_on_limit=False)
    else:
        w = WORKLOADS[program]
        machine = build_metal_machine(list(w.routines), config=config)
        if w.setup is not None:
            w.setup(machine)
        image = machine.assemble(
            workload_source(program, iters_for(program, size)))
        machine.load(image)
        machine.core.pc = image.symbols["_start"]
        result = machine.run(max_instructions=4 * size, raise_on_limit=False)
        if not result.halted:
            raise RuntimeError(f"{program}:{size} did not halt")
    return _simulated(machine, program)


def golden_key(program: str, size: int) -> str:
    return f"{program}:{size}"


def check_job(record: dict, golden: dict) -> str:
    """Empty string when *record* matches *golden*, else the reason."""
    if golden is None:
        return "no golden result for this job"
    if record["program"] != SCHEDULER and not record["halted"]:
        return "did not halt"
    for field in golden:
        if record.get(field) != golden[field]:
            return f"{field} differs from the golden result"
    return ""


def run_phase(engine: str, seed: int, seconds: float, min_jobs: int,
              goldens: dict, recorder, minimal: bool = False) -> dict:
    """Run whole rounds of the seeded stream until *seconds* have passed
    and at least *min_jobs* jobs ran.

    A calibration sample brackets every job; the job's ``scale`` is the
    reference calibration time over the mean of its two samples, which
    turns its host times into times on the reference host."""
    stream = SimStream(seed, engine, minimal)
    jobs, failures = [], []
    start = perf_counter()
    rounds = 0
    probe = calibration_sample()
    while True:
        for program, size in stream.next_round():
            try:
                record = run_job(program, size, engine)
            except Exception as exc:          # noqa: BLE001 — counted, reported
                failures.append(f"{program}:{size}: "
                                f"{type(exc).__name__}: {exc}")
                probe = calibration_sample()
                continue
            after = calibration_sample()
            record["scale"] = 2 * REFERENCE_CALIBRATION_S / (probe + after)
            probe = after
            reason = check_job(record, goldens.get(golden_key(program, size)))
            if reason:
                failures.append(f"{program}:{size}: {reason}")
                continue
            jobs.append(record)
            _record_spans(recorder, record, len(jobs) - 1)
        rounds += 1
        if perf_counter() - start >= seconds and \
                len(jobs) + len(failures) >= min_jobs:
            break
    return {"jobs": jobs, "failures": failures, "rounds": rounds}


def _record_spans(recorder, record: dict, job_id: int) -> None:
    t0, t1, t2, t3, t4 = record["times"]
    root = recorder.add("sim.job", t0, t4, job_id)
    recorder.add("metal.build", t0, t1, job_id, root)
    recorder.add("asm.assemble", t1, t2, job_id, root)
    recorder.add("asm.load", t2, t3, job_id, root)
    recorder.add("cpu.run", t3, t4, job_id, root)


def _scaled(record: dict, first: int, last: int) -> float:
    """Reference-host seconds between two of the job's timestamps."""
    times = record["times"]
    return (times[last] - times[first]) * record["scale"]


def host_scale(phase: dict) -> float:
    """Median scale of the phase's jobs (reference over host time)."""
    return median([r["scale"] for r in phase["jobs"]])


def throughput_mips(phase: dict) -> float:
    """Guest instructions retired per second of job time (build to
    halt, on the reference host)."""
    jobs = phase["jobs"]
    return (sum(r["instret"] for r in jobs)
            / sum(_scaled(r, 0, 4) for r in jobs) / 1e6)


def e2e_metrics(phase: dict) -> dict:
    """The end-to-end metrics of one untraced phase."""
    jobs = phase["jobs"]
    latencies = [_scaled(r, 0, 4) for r in jobs]
    setup_by_program = {}
    for r in jobs:
        setup_by_program.setdefault(r["program"], []).append(_scaled(r, 0, 3))
    return {
        # One job of every program, each at its median set-up time.
        "setup_s": sum(median(v) for v in setup_by_program.values()),
        "throughput_mips": throughput_mips(phase),
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_p90_ms": percentile(latencies, 90) * 1e3,
        "sim_cpi": (sum(r["cycles"] for r in jobs)
                    / sum(r["instret"] for r in jobs)),
        "peak_rss_mib": self_peak_rss_mib(),
    }


def layer_metrics(phase: dict, recorder) -> dict:
    """Per-layer metrics of one traced phase.  Counts are per round (one
    pass over the grid), so they do not depend on the run's length."""
    jobs, rounds = phase["jobs"], phase["rounds"]
    own = {name: [secs * jobs[job]["scale"] for job, secs in spans]
           for name, spans in recorder.self_times_by_name().items()}
    tc = {name: sum(r["tcache"][name] for r in jobs)
          for name in _TCACHE_FIELDS}
    instructions = sum(r["instret"] for r in jobs)
    dispatches = tc["hits"] + tc["misses"] + tc["chain_hits"]
    out = {
        "cpu.run_s": sum(own.get("cpu.run", ())) / rounds,
        "cpu.fast_share": tc["fast_instructions"] / instructions,
        "cpu.jit_share": tc["jit_instructions"] / instructions,
        "cpu.hit_rate": ((tc["hits"] + tc["chain_hits"]) / dispatches
                         if dispatches else 0.0),
        "cpu.blocks_compiled": tc["blocks_compiled"] / rounds,
        "cpu.jit_blocks": tc["jit_blocks"] / rounds,
        "cpu.jit_compile_ms": tc["jit_compile_ms"] / rounds,
        "cpu.chain_break_ratio": (tc["chain_breaks"] / tc["chain_links"]
                                  if tc["chain_links"] else 0.0),
        "metal.build_ms": median(own.get("metal.build", ())) * 1e3,
        "asm.assemble_ms": median(own.get("asm.assemble", ())) * 1e3,
        "asm.load_ms": median(own.get("asm.load", ())) * 1e3,
        "devices.context_switches": sum(
            r.get("switches", 0) for r in jobs) / rounds,
    }
    for program in SIM_PROGRAMS:
        mine = [r for r in jobs if r["program"] == program]
        run_s = sum(_scaled(r, 3, 4) for r in mine)
        out[f"cpu.mips.{program}"] = (
            sum(r["instret"] for r in mine) / run_s / 1e6 if run_s else 0.0)
    for cache in ("icache", "dcache"):
        hits = sum(r[cache][0] for r in jobs)
        accesses = hits + sum(r[cache][1] for r in jobs)
        out[f"mem.{cache}_accesses"] = accesses / rounds
        out[f"mem.{cache}_hit_rate"] = hits / accesses if accesses else 0.0
    for i, name in enumerate(("load_use", "control", "fetch")):
        out[f"timing.stall_{name}"] = sum(
            r["stalls"][i] for r in jobs if "stalls" in r) / rounds
    return out
