"""The MSYNTH pipeline: profile -> mine -> generate -> rewrite -> report.

One call to :func:`synthesize_source` (or :func:`synthesize_workload`)
runs the whole loop on three machines of identical shape:

* a **profiling** machine records MPROF hot-trace aggregates;
* a **baseline** machine measures the unmodified program and its
  architectural digest;
* a **rewritten** machine gets the synthesized routines appended to its
  live image (through the loader's append path, so MAS verifies them
  and the tcache drops its stale mram blocks) and runs the patched
  program.

The architectural digest covers GPRs, pc, halt state, console output
and guest RAM with exactly the patched byte ranges masked — cycle and
instret counters are excluded (``menter``/``mexit`` legitimately add
two retirements per invocation, and MRAM fetch costs differ by
design).  A synthesis run *fails* (``digest.match == False``) if the
rewritten program computes anything else differently.

The headline metric is the architectural cycle ratio: fused regions
fetch from single-cycle MRAM instead of guest RAM (the same reason the
paper's mroutines are fast), so a hot loop's speedup approaches the
RAM fetch latency.
"""

from __future__ import annotations

import hashlib
import struct
import time
from typing import Optional

from repro.bench.runner import measure
from repro.conformance.crosscheck import check_words
from repro.machine.builder import build_metal_machine
from repro.synth.generate import generate_routine
from repro.synth.hwcost import routine_hw_delta
from repro.synth.mine import mine_candidates
from repro.synth.rewrite import rewrite_program

DEFAULT_BASE = 0x1000
DEFAULT_MAX_CANDIDATES = 4
MAX_INSTRUCTIONS = 50_000_000


def architectural_digest(machine, masked_ranges=(), ram_bytes=None) -> str:
    """sha256 over everything the guest can observe at halt.

    GPRs, pc, halt flag, console output and RAM — with *masked_ranges*
    (the patched/trampoline bytes) zeroed so baseline and rewritten
    images compare equal everywhere the rewrite did not deliberately
    touch.  Cycles/instret are excluded by design (see module
    docstring); MRAM and mregs are Metal-internal, not guest state.
    """
    sha = hashlib.sha256()
    core = machine.core
    sha.update(struct.pack("<32I", *[r & 0xFFFFFFFF for r in core.regs]))
    sha.update(struct.pack("<I?", core.pc & 0xFFFFFFFF, core.halted))
    sha.update(machine.output.encode())
    ram = bytearray(machine.read_bytes(0, ram_bytes or machine.ram.size))
    for start, end in masked_ranges:
        ram[start:end] = bytes(end - start)
    sha.update(bytes(ram))
    return sha.hexdigest()


def profile_aggregates(source: str, routines=(), setup=None,
                       base: int = DEFAULT_BASE,
                       max_instructions: int = MAX_INSTRUCTIONS):
    """Run *source* once under MPROF; return the trace aggregates."""
    machine = _build(routines, setup)
    sink = machine.set_profiling(True)
    machine.load_and_run(source, base=base,
                         max_instructions=max_instructions)
    return list(sink.trace_table().values())


def synthesize_source(source: str, routines=(), setup=None,
                      label: str = "", base: int = DEFAULT_BASE,
                      max_candidates: int = DEFAULT_MAX_CANDIDATES,
                      counter: bool = True, force_trampoline: bool = False,
                      max_instructions: int = MAX_INSTRUCTIONS) -> dict:
    """Run the full pipeline on *source*; return the JSON-ready report.

    *routines*/*setup* describe the machine shape the program needs
    (the workload's boot mroutines and routing) — the synthesized
    routines are appended on top of them.
    """
    aggregates = profile_aggregates(source, routines, setup, base,
                                    max_instructions)

    scout = _build(routines, setup)
    program = scout.assemble(source, base=base)
    words = program.words()
    entry_pc = program.symbols.get("_start", base)
    candidates = mine_candidates(words, base, aggregates,
                                 top=max_candidates, entry_pc=entry_pc)

    report = {
        "label": label,
        "source_sha": hashlib.sha256(source.encode()).hexdigest()[:16],
        "candidates": [],
        "baseline": None,
        "rewritten": None,
        "speedup": 1.0,
        "digest": {"baseline": None, "rewritten": None, "match": True},
        "lint_clean": True,
    }
    if not candidates:
        return report

    # Generate + append on the rewritten machine, one candidate at a
    # time so entry/mreg/data allocation sees each append.
    rewritten = _build(routines, setup)
    image = rewritten.metal_image
    emitted = []
    for cand in candidates:
        before = (image.code_used_bytes, image.data_used_bytes,
                  len(image.routines))
        routine = generate_routine(cand, image, words, base, counter=counter)
        rewritten.append_mroutines([routine])
        emitted.append((cand, routine, before))

    # Patch a fresh copy of the program.
    patched = rewritten.assemble(source, base=base)
    masked = []
    patches = []
    for cand, routine, _ in emitted:
        patch = rewrite_program(patched, cand, routine.entry,
                                force_trampoline=force_trampoline)
        patches.append(patch)
        masked.extend(patch.masked_ranges)

    baseline = _build(routines, setup)
    base_prog = baseline.assemble(source, base=base)
    base_res, base_wall = _run(baseline, base_prog, entry_pc,
                               max_instructions)
    rew_res, rew_wall = _run(rewritten, patched, entry_pc, max_instructions)

    digest_base = architectural_digest(baseline, masked)
    digest_rew = architectural_digest(rewritten, masked)

    for (cand, routine, before), patch in zip(emitted, patches):
        facts = routine.facts
        report["candidates"].append({
            "name": routine.name,
            "kind": cand.kind,
            "head_pc": cand.head_pc,
            "length": cand.length,
            "hits": cand.hits,
            "hot_instructions": cand.hot_instructions,
            "score": cand.score,
            "entry": routine.entry,
            "style": patch.style,
            "code_words": len(routine.code_words),
            "purity": facts.purity.value if facts is not None else None,
            "invocations": _invocations(image, routine),
            "oracle_disagreements": len(check_words(routine.code_words)),
            "hw_delta": routine_hw_delta(routine, *before),
        })

    report["baseline"] = {"cycles": base_res.cycles,
                          "instructions": base_res.instructions,
                          "wall_s": round(base_wall, 6)}
    report["rewritten"] = {"cycles": rew_res.cycles,
                           "instructions": rew_res.instructions,
                           "wall_s": round(rew_wall, 6)}
    report["speedup"] = (base_res.cycles / rew_res.cycles
                         if rew_res.cycles else 0.0)
    report["digest"] = {"baseline": digest_base, "rewritten": digest_rew,
                        "match": digest_base == digest_rew}
    report["lint_clean"] = _lint_clean([r for _, r, _ in emitted])
    return report


def synthesize_workload(name: str, iters: Optional[int] = None,
                        **kwargs) -> dict:
    """Run the pipeline on the named MPROF workload."""
    from repro.profile.workloads import WORKLOADS, workload_source

    workload = WORKLOADS[name]
    source = workload_source(name, iters)
    report = synthesize_source(
        source, routines=workload.routines, setup=workload.setup,
        label=name, **kwargs)
    report["iters"] = iters if iters is not None else workload.default_iters
    return report


def generated_routines(workloads=("tight_loop", "hash_mix"),
                       iters: int = 400) -> list:
    """The routines MSYNTH generates for *workloads* at small scale,
    re-numbered into one image (the ``synth`` entry of the MAS lint
    registry, so ``python -m repro lint --apps`` covers generated
    code)."""
    from repro.profile.workloads import WORKLOADS, workload_source

    routines = []
    for wname in workloads:
        workload = WORKLOADS[wname]
        source = workload_source(wname, iters)
        aggregates = profile_aggregates(source, workload.routines,
                                        workload.setup)
        machine = _build(workload.routines, workload.setup)
        program = machine.assemble(source, base=DEFAULT_BASE)
        words = program.words()
        entry_pc = program.symbols.get("_start", DEFAULT_BASE)
        image = machine.metal_image
        for cand in mine_candidates(words, DEFAULT_BASE, aggregates,
                                    top=2, entry_pc=entry_pc):
            routine = generate_routine(cand, image, words, DEFAULT_BASE)
            machine.append_mroutines([routine])
            routines.append(routine)
    # Fresh placement for a standalone image: unique entries, distinct
    # names (two workloads can mine the same head pc, and both allocate
    # from their own image's mreg pool — declare the counter mregs
    # shared instead of renaming them inside the source).
    out = []
    from repro.metal.mroutine import MRoutine

    for entry, routine in enumerate(routines):
        name = f"synth{entry}{routine.name[len('synth'):]}"
        source = routine.source.replace(f"{routine.name.upper()}_DATA",
                                        f"{name.upper()}_DATA")
        out.append(MRoutine(
            name=name, entry=entry, source=source,
            data_words=routine.data_words, data_init=routine.data_init,
            shared_mregs=routine.mregs,
        ))
    return out


# ----------------------------------------------------------------------

def _build(routines, setup):
    machine = build_metal_machine(list(routines), with_caches=False)
    if setup is not None:
        setup(machine)
    return machine


def _run(machine, program, entry_pc, max_instructions):
    machine.load(program)
    machine.core.pc = entry_pc
    start = time.perf_counter()
    result = measure(machine, max_instructions=max_instructions)
    return result, time.perf_counter() - start


def _invocations(image, routine):
    """The routine's MRAM invocation counter (word 0 of its data slice),
    or ``None`` for counter-less routines."""
    if not routine.mregs:
        return None
    data = image.mram.data
    off = routine.data_offset
    return struct.unpack_from("<I", data, off)[0]


def _lint_clean(routines) -> bool:
    """True when MAS lints the generated set with zero errors."""
    from repro.analysis.lint import lint_routines

    try:
        results, extra = lint_routines(
            [_standalone(i, r) for i, r in enumerate(routines)])
    except Exception:
        return False
    diags = [d for result in results.values() for d in result.diagnostics]
    diags.extend(extra)
    return not any(d.is_error for d in diags)


def _standalone(entry, routine):
    """Re-place *routine* for a fresh single-image lint."""
    from repro.metal.mroutine import MRoutine

    return MRoutine(
        name=routine.name, entry=entry, source=routine.source,
        data_words=routine.data_words, data_init=routine.data_init,
        mregs=routine.mregs,
    )
