"""Host-throughput benchmark for the execution engines.

Unlike the other benchmarks (which regenerate the paper's guest-visible
numbers), this one measures the *simulator*: guest instructions retired
per host second (host MIPS) with the predecoded translation cache
(:mod:`repro.cpu.tcache`) on and off, across six workload shapes:

* **tight_loop** — straight-line ALU work in a hot loop: the tcache's
  best case (one block per iteration, 100% hit rate after warmup);
* **syscall_heavy** — every iteration delivers an ECALL to an mroutine
  and returns: stresses the MRAM block namespace and Metal transitions;
* **intercept_heavy** — every iteration's ``lw`` is intercepted and
  emulated by an mroutine: normal-mode blocks compiled under the
  installed rule set end at the ``lw``, whose delivery crosses into the
  handler and back;
* **chain_trampoline** — straight-line work split by two unconditional
  jumps: a block continues through a ``j``, so the loop is one block
  whose back edge MJIT internalises, like tight_loop's (its chain hits
  are those internalised iterations);
* **poly_branch** — a branch whose target flips every iteration: the
  target map's showcase (a monomorphic single-slot chainer breaks and
  relinks this chain on every flip); its chain hits must cover every
  iteration, with at most 8 breaks;
* **mcode_heavy** — every iteration ``menter``s a pure mroutine that
  spins in MRAM: Metal-mode blocks compiled by MJIT's mram tier, like
  normal-mode ones.

The workload programs and machine shapes live in
:mod:`repro.profile.workloads`, shared with ``python -m repro profile``
so a profiled workload and a benchmarked one are the same program.

Every workload is measured with the interpreter (``tcache_off``) and
the chained translation cache (``tcache_on``), which compiles hot
blocks to tier 2 on either engine (MJIT: specialized Python source, see
:mod:`repro.cpu.jit`).  The JSON records
the cache win over the interpreter (``speedup``) and each row's tier-2
counters (``jit``).  A ``trajectory`` list in the JSON keeps the
tight-loop functional numbers of every PR for trend tracking.

The JSON also records the MPROF ``profiler`` numbers: tight-loop
functional MIPS with the trace event sink detached vs attached.
Detached must track the tight-loop trajectory (the sink costs one
pointer test per retired trace when off); attached overhead is
asserted ≤15% in the full run.

The tcache is architecture-invisible, so for every workload and engine
the guest results (``RunResult.instructions`` / ``cycles``) must be
bit-identical across all modes, and Metal-mode blocks run compiled like
normal-mode ones, so mcode_heavy, syscall_heavy and intercept_heavy
retire every instruction at tier 2.  A dispatch chains across
Metal transitions and intercept deliveries too, so each ``tcache_on``
row records ``dispatches_per_instruction`` (dispatcher block lookups,
hits plus misses, per instruction), and syscall_heavy and
intercept_heavy must stay at or below 0.01 and mcode_heavy and the
preemptive scheduler (where a refused block's prefix runs in the
dispatch that reached it) at or below 0.005 — this file asserts all
four, plus the
headline wins for the functional engine on the tight loop: ≥2.6× over
the interpreter, a tier-2 dispatch share (``jit.dispatch_share``, the
instructions retired at tier 2 over all retired) ≥90% and ≥6.16 MIPS
absolute (2× the PR-4 trajectory number).  Results land in
``BENCH_host_throughput.json`` at the repo root.

Run directly (``PYTHONPATH=src python benchmarks/bench_host_throughput.py``)
or via pytest.  ``--smoke`` runs a <30s subset for CI: it checks the
tight-loop hit rate (≥90%) and tier-2 dispatch share (≥90%),
cross-mode result equality, that chains actually engage and that the
Metal-heavy workloads retire every instruction at tier 2 and stay under
their dispatches-per-instruction bounds, and boots the
preemptive scheduler on ``MachineConfig()`` with its timer interrupts
live: identical instructions, cycles and context switches with the
tcache off and on, and every instruction at tier 2.
It skips the wall-clock speedup assertions (too noisy for shared
runners); its
results land in ``BENCH_host_throughput_smoke.json`` (uploaded as a CI
artifact) so the committed full-run JSON is never clobbered by a smoke
run.  Both files record the host's fingerprint (CPU model, core count,
Python), and so does this run's trajectory entry: MIPS compare only
between runs on one fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from time import perf_counter

from repro.machine.builder import MachineConfig
from repro.osdemo.scheduler import SCHED_SWITCHES, boot_scheduler_demo
from repro.profile.workloads import build_workload, workload_source

from common import perf_summary

JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_host_throughput.json")
SMOKE_JSON_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                               "BENCH_host_throughput_smoke.json")
#: Label this run's tight-loop numbers carry in the JSON trajectory.
TRAJECTORY_LABEL = "regions"

#: Most dispatcher block lookups (``hits + misses``) per instruction a
#: Metal-heavy workload may make with the tcache on: its Metal
#: transitions and intercept deliveries are chain crossings.
DISPATCH_BOUNDS = {"syscall_heavy": 0.01, "intercept_heavy": 0.01,
                   "mcode_heavy": 0.005, "preemptive_scheduler": 0.005}


def host_fingerprint() -> dict:
    """CPU model, core count and Python version of this host."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def _build(workload: str, engine: str):
    """Build the machine for *workload* (see repro.profile.workloads).
    Always built with the tcache enabled; measurements toggle it with
    ``Machine.set_tcache`` to show the flag is switchable inside one
    process."""
    return build_workload(workload, engine=engine)


#: Measurement modes: mode name -> tcache on.
_MODES = {"tcache_off": False, "tcache_on": True}


def _measure(workload: str, engine: str, mode: str, iters: int,
             reps: int) -> dict:
    """Best-of-*reps* host MIPS for one configuration (fresh machine per
    rep; deterministic guest results are cross-checked across reps)."""
    tcache = _MODES[mode]
    source = workload_source(workload, iters)
    best_mips = 0.0
    ref = None
    best_stats = None
    last_machine = None
    for _ in range(reps):
        machine = _build(workload, engine)
        machine.set_tcache(tcache)
        host0 = perf_counter()
        result = machine.load_and_run(source, max_instructions=50_000_000)
        host = perf_counter() - host0
        outcome = (result.instructions, result.cycles)
        if ref is None:
            ref = outcome
        elif outcome != ref:
            raise AssertionError(
                f"{workload}/{engine}: non-deterministic guest results "
                f"{outcome} vs {ref}"
            )
        mips = result.instructions / host / 1e6 if host > 0 else 0.0
        if mips >= best_mips or last_machine is None:
            best_mips = mips
            best_stats = machine.perf.tcache
            last_machine = machine
    perf_summary(last_machine, f"{workload}/{engine}/{mode}")
    row = {
        "mips": round(best_mips, 4),
        "instructions": ref[0],
        "cycles": ref[1],
        "hit_rate": round(best_stats.hit_rate, 4),
    }
    if tcache:
        row["dispatches_per_instruction"] = round(
            (best_stats.hits + best_stats.misses) / ref[0], 5)
        row["chains"] = {
            "links": best_stats.chain_links,
            "hits": best_stats.chain_hits,
            "breaks": best_stats.chain_breaks,
            "longest": best_stats.chain_longest,
        }
        row["jit"] = {
            "blocks": best_stats.jit_blocks,
            "instructions": best_stats.jit_instructions,
            # Tier-2 share of every instruction the run retired.
            "dispatch_share": round(best_stats.jit_instructions / ref[0], 4),
            "compile_ms": round(best_stats.jit_compile_ms, 3),
        }
    return row


def run_suite(iters: dict, reps: int, engines=("functional", "pipeline")):
    results = {}
    for workload, n in iters.items():
        results[workload] = {}
        for engine in engines:
            row = {"iterations": n}
            for mode in _MODES:
                row[mode] = _measure(workload, engine, mode, n, reps)
            off, on = row["tcache_off"], row["tcache_on"]
            row["speedup"] = round(
                on["mips"] / off["mips"] if off["mips"] else 0.0, 3)
            results[workload][engine] = row
            # Metal-mode blocks run compiled like normal-mode ones,
            # whether or not MAS proved their routine store-free.
            if workload in ("mcode_heavy", "syscall_heavy",
                            "intercept_heavy"):
                assert on["jit"]["instructions"] == on["instructions"], (
                    f"{workload}/{engine}: {on['jit']['instructions']} of "
                    f"{on['instructions']} instructions retired at tier 2")
            # Metal transitions chain: the dispatcher is rarely entered.
            bound = DISPATCH_BOUNDS.get(workload)
            if bound is not None:
                assert on["dispatches_per_instruction"] <= bound, (
                    f"{workload}/{engine}: "
                    f"{on['dispatches_per_instruction']} dispatches per "
                    f"instruction > {bound}")
            # The tcache is guest-invisible: identical results in both
            # modes.
            for key in ("instructions", "cycles"):
                assert on[key] == off[key], (
                    f"{workload}/{engine}: tcache changed guest-visible "
                    f"{key}: {on[key]} vs {off[key]}"
                )
    return results


def measure_profiler_overhead(iters: int, reps: int,
                              engine: str = "functional") -> dict:
    """Tight-loop MIPS with the MPROF sink detached vs attached.

    Detached is the tax every user pays for the subsystem existing (one
    pointer test per retired trace, one comparison per chained
    transition); attached is the cost of actually recording.  The two
    alternate rep by rep, so the host's speed drifting during the
    measurement moves both bests alike.  Guest results must be
    bit-identical in both configurations.
    """
    source = workload_source("tight_loop", iters)
    best = {False: 0.0, True: 0.0}
    ref, traces = None, 0
    for _ in range(reps):
        for profiling in (False, True):
            machine = _build("tight_loop", engine)
            if profiling:
                machine.set_profiling(True)
            host0 = perf_counter()
            result = machine.load_and_run(source,
                                          max_instructions=50_000_000)
            host = perf_counter() - host0
            outcome = (result.instructions, result.cycles)
            if ref is None:
                ref = outcome
            elif outcome != ref:
                raise AssertionError(
                    f"profiling {'on' if profiling else 'off'} changed "
                    f"guest-visible results: {outcome} vs {ref}")
            best[profiling] = max(
                best[profiling],
                result.instructions / host / 1e6 if host else 0.0)
            if profiling:
                traces = machine.profiler.total_traces
    off_mips, on_mips = best[False], best[True]
    overhead = 1.0 - (on_mips / off_mips) if off_mips else 0.0
    return {
        "workload": "tight_loop",
        "engine": engine,
        "iterations": iters,
        "profiling_off_mips": round(off_mips, 4),
        "profiling_on_mips": round(on_mips, 4),
        "enabled_overhead": round(overhead, 4),
        "traces_recorded": traces,
    }


def check_scheduler(instructions: int = 50_000) -> dict:
    """Boot the preemptive scheduler on ``MachineConfig()`` (timer
    interrupts live) with the tcache off and on, run *instructions*,
    and assert the runs agree, the fast run retires every instruction
    at tier 2 (the device horizon makes interrupts need no polling, and
    near it a block's admissible prefix runs compiled, in the dispatch
    that reached the block) and makes at most its
    :data:`DISPATCH_BOUNDS` dispatches per instruction.  Structural
    only: no wall-clock assert."""
    outcomes = {}
    for tcache in (False, True):
        machine = boot_scheduler_demo(config=MachineConfig(tcache=tcache))
        host0 = perf_counter()
        machine.run(max_instructions=instructions, raise_on_limit=False)
        host = perf_counter() - host0
        tc = machine.perf.tcache
        outcomes[tcache] = {
            "instret": machine.core.instret,
            "cycles": machine.cycles,
            "switches": machine.read_word(SCHED_SWITCHES),
            "mips": round(machine.core.instret / host / 1e6, 4),
            "jit_instructions": tc.jit_instructions,
            "jit_share": round(tc.jit_instructions
                               / machine.core.instret, 4),
            "dispatches_per_instruction": round(
                (tc.hits + tc.misses) / machine.core.instret, 5),
        }
    off, on = outcomes[False], outcomes[True]
    for key in ("instret", "cycles", "switches"):
        assert on[key] == off[key], (
            f"scheduler: {key} differs with the tcache on "
            f"({on[key]} vs {off[key]})")
    assert on["switches"] > 10, f"scheduler: {on['switches']} switches"
    assert on["jit_instructions"] == on["instret"], (
        f"scheduler: {on['instret'] - on['jit_instructions']} "
        f"instructions retired off tier 2")
    bound = DISPATCH_BOUNDS["preemptive_scheduler"]
    assert on["dispatches_per_instruction"] <= bound, (
        f"scheduler: {on['dispatches_per_instruction']} dispatches per "
        f"instruction > {bound}")
    print(f"preemptive_scheduler: {on['switches']} switches, tier 2 "
          f"{on['jit_share']:.1%}, {on['dispatches_per_instruction']} "
          f"dispatches/instr, {off['mips']:.3f} -> {on['mips']:.3f} MIPS")
    return {"tcache_off": off, "tcache_on": on}


def _load_previous(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _trajectory(results: dict, previous, profiler: dict = None,
                host: dict = None) -> list:
    """History of the tight-loop functional numbers, one entry per label.

    Carries the previous file's trajectory forward; a pre-trajectory file
    is bootstrapped from its recorded results.  The current run, with
    its *host* fingerprint, replaces any earlier entry with the same
    label.
    """
    trajectory = list(previous.get("trajectory", [])) if previous else []
    if not trajectory and previous:
        old = (previous.get("results", {})
               .get("tight_loop", {}).get("functional"))
        if old and "tcache_on" in old:
            trajectory.append({
                "label": "pr1_tcache",
                "tight_loop_functional": {
                    "tcache_off_mips": old["tcache_off"]["mips"],
                    "tcache_on_mips": old["tcache_on"]["mips"],
                    "speedup": old["speedup"],
                },
            })
    tight = results.get("tight_loop", {}).get("functional")
    if tight:
        entry = {
            "label": TRAJECTORY_LABEL,
            "host": host,
            "tight_loop_functional": {
                "tcache_off_mips": tight["tcache_off"]["mips"],
                "tcache_on_mips": tight["tcache_on"]["mips"],
                "speedup": tight["speedup"],
            },
        }
        if profiler:
            entry["profiler"] = {
                "profiling_off_mips": profiler["profiling_off_mips"],
                "profiling_on_mips": profiler["profiling_on_mips"],
                "enabled_overhead": profiler["enabled_overhead"],
            }
        trajectory = [e for e in trajectory
                      if e.get("label") != entry["label"]]
        trajectory.append(entry)
    return trajectory


def _emit_json(results: dict, json_path: str = JSON_PATH,
               profiler: dict = None, scheduler: dict = None) -> str:
    path = os.path.abspath(json_path)
    host = host_fingerprint()
    trajectory = _trajectory(results, _load_previous(path),
                             profiler=profiler, host=host)
    payload = {
        "benchmark": "host_throughput",
        "host": host,
        "results": results,
        "trajectory": trajectory,
    }
    if profiler:
        payload["profiler"] = profiler
    if scheduler:
        payload["scheduler"] = scheduler
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _print_table(results: dict) -> None:
    print()
    print(f"{'workload':<18} {'engine':<11} {'off MIPS':>9} "
          f"{'on MIPS':>9} {'speedup':>8} {'tier 2':>7} {'hit rate':>9}")
    for workload, engines in results.items():
        for engine, row in engines.items():
            on = row["tcache_on"]
            print(f"{workload:<18} {engine:<11} "
                  f"{row['tcache_off']['mips']:>9.3f} "
                  f"{on['mips']:>9.3f} "
                  f"{row['speedup']:>7.2f}x "
                  f"{on['jit']['dispatch_share']:>7.1%} "
                  f"{on['hit_rate']:>8.1%}")
    print()


def run_full() -> dict:
    iters = {
        "tight_loop": 100_000,
        "chain_trampoline": 60_000,
        "poly_branch": 60_000,
        "syscall_heavy": 20_000,
        "intercept_heavy": 15_000,
        "mcode_heavy": 15_000,
    }
    results = run_suite(iters, reps=3)
    _print_table(results)
    profiler = measure_profiler_overhead(iters["tight_loop"], reps=3)
    print(f"profiler overhead  : off {profiler['profiling_off_mips']:.3f} "
          f"MIPS, on {profiler['profiling_on_mips']:.3f} MIPS "
          f"({profiler['enabled_overhead']:.1%} enabled overhead)")
    path = _emit_json(results, profiler=profiler)
    print(f"results written to {path}")
    assert profiler["enabled_overhead"] <= 0.15, (
        f"profiling-enabled overhead {profiler['enabled_overhead']:.1%} "
        f"> 15% on the tight loop"
    )
    _check_poly_branch(results, iters["poly_branch"])
    tight = results["tight_loop"]["functional"]
    assert tight["speedup"] >= 2.6, (
        f"tight-loop functional speedup {tight['speedup']}x < 2.6x"
    )
    assert tight["tcache_on"]["hit_rate"] >= 0.90, (
        f"tight-loop hit rate {tight['tcache_on']['hit_rate']:.1%} < 90%"
    )
    tramp = results["chain_trampoline"]["functional"]
    assert tramp["tcache_on"]["chains"]["hits"] > 0, (
        "trampoline workload never followed a chain link"
    )
    tight_on = tight["tcache_on"]
    assert tight_on["jit"]["dispatch_share"] >= 0.90, (
        f"tight-loop tier-2 dispatch share "
        f"{tight_on['jit']['dispatch_share']:.1%} < 90%"
    )
    assert tight_on["mips"] >= 6.16, (
        f"tight-loop MJIT MIPS {tight_on['mips']} < 6.16 "
        f"(2x the PR-4 trajectory number)"
    )
    return results


def _check_poly_branch(results, iterations: int) -> None:
    """The alternating branch keeps both targets in its target map:
    chain hits cover every iteration, and the chain breaks only while
    the targets are first seen."""
    poly = results["poly_branch"]["functional"]["tcache_on"]["chains"]
    assert poly["hits"] >= iterations, (
        f"poly_branch: {poly['hits']} chain hits over {iterations} "
        f"iterations"
    )
    assert poly["breaks"] <= 8, (
        f"poly_branch still breaking chains: {poly['breaks']} breaks"
    )


def run_smoke() -> dict:
    """CI subset: functional engine, small iteration counts, one rep.

    Asserts the structural properties (hit rate, cross-mode equality,
    every Metal-heavy instruction at tier 2, chains engaging, tier-2
    dispatch share) but not the wall-clock speedups, which are too
    noisy for shared runners.  Writes its
    numbers to a separate smoke JSON so the committed full-run results
    stay untouched.
    """
    iters = {
        "tight_loop": 20_000,
        "chain_trampoline": 10_000,
        "poly_branch": 10_000,
        "syscall_heavy": 2_000,
        "intercept_heavy": 1_500,
        "mcode_heavy": 2_000,
    }
    results = run_suite(iters, reps=1, engines=("functional",))
    _print_table(results)
    profiler = measure_profiler_overhead(iters["tight_loop"], reps=1)
    scheduler = check_scheduler()
    path = _emit_json(results, json_path=SMOKE_JSON_PATH,
                      profiler=profiler, scheduler=scheduler)
    print(f"smoke results written to {path}")
    tight = results["tight_loop"]["functional"]
    assert tight["tcache_on"]["hit_rate"] >= 0.90, (
        f"tight-loop hit rate {tight['tcache_on']['hit_rate']:.1%} < 90%"
    )
    for workload in ("tight_loop", "chain_trampoline"):
        chains = results[workload]["functional"]["tcache_on"]["chains"]
        assert chains["hits"] > 0, (
            f"{workload}: chaining never engaged (links={chains['links']})"
        )
    _check_poly_branch(results, iters["poly_branch"])
    # Structural profiler check (no wall-clock asserts).
    assert profiler["traces_recorded"] > 0, "profiler recorded no traces"
    tight_jit = tight["tcache_on"]["jit"]
    assert tight_jit["blocks"] > 0, "tight_loop: MJIT compiled no blocks"
    assert tight_jit["dispatch_share"] >= 0.90, (
        f"tight_loop: tier-2 dispatch share "
        f"{tight_jit['dispatch_share']:.1%} < 90%"
    )
    return results


def test_host_throughput_smoke(benchmark):
    """Pytest entry point: the smoke subset under the benchmark fixture."""
    benchmark.pedantic(run_smoke, rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI subset (<30s, no speedup assertion)")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            run_smoke()
        else:
            run_full()
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
