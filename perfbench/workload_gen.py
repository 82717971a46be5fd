"""Seeded job streams for the three benchmark workloads.

Everything the program under test receives is generated here from the
``--seed`` argument, so one seed always yields the same stream.  The
streams are built from fixed *ladders* of job sizes; every (program,
size) cell a stream can emit has a golden result in ``goldens.json``.

Sim workloads run in *rounds*: one round holds every (program, rung)
cell of the grid exactly once, in a seeded order.  A run measures whole
rounds, so runs with different seeds execute the same multiset of jobs
and their host-time figures compare directly, while the order (and with
it warm-up, allocator and GC effects) still varies with the seed.

The fleet stream runs in *blocks* of 20 requests with a fixed class mix
(14 short, 2 inline, 1 gate reject, 3 long) in a seeded order, for the
same reason.
"""

from __future__ import annotations

import random

#: Guest instructions per loop iteration of each named program (the
#: loop body, counted once from a run at two iteration counts).
PER_ITER = {
    "tight_loop": 11,
    "hash_mix": 9,
    "chain_trampoline": 12,
    "poly_branch": 7.5,
    "syscall_heavy": 8,
    "intercept_heavy": 17,
    "mcode_heavy": 102,
}

#: The booted preemptive-scheduler demo: it never halts, so its jobs
#: run to a fixed instruction count with live timer interrupts.
SCHEDULER = "preemptive_scheduler"

SIM_PROGRAMS = tuple(PER_ITER) + (SCHEDULER,)

#: Guest-instruction ladders, evenly spaced in log size.  The pipeline
#: engine runs ~2.5x slower, so its ladder is smaller.  Seven rungs
#: spread job latencies smoothly, so p50 and p90 fall among many
#: similar jobs instead of on the edge between two far-apart sizes, and
#: two rounds of 56 jobs give p90 at least ten samples beyond it.
SIM_LADDERS = {
    "functional": (10_000, 17_600, 31_000, 55_000, 97_000, 170_000,
                   300_000),
    "pipeline": (5_000, 8_200, 13_600, 22_400, 37_000, 61_000, 100_000),
}

#: Fleet request sizes in guest instructions: a short request fits in
#: one 50,000-instruction quantum, a long one spans about six.
FLEET_SHORT = 10_000
FLEET_LONG = 300_000

#: Inline programs the fleet must admit, as (label, source).
INLINE_OK = (
    ("sum_loop_200",
     "_start:\n    li t0, 200\n    li t1, 0\nloop:\n    add t1, t1, t0\n"
     "    addi t0, t0, -1\n    bnez t0, loop\n    halt\n"),
    ("sum_loop_2000",
     "_start:\n    li t0, 2000\n    li t1, 0\nloop:\n    add t1, t1, t0\n"
     "    addi t0, t0, -1\n    bnez t0, loop\n    halt\n"),
    ("console_hello",
     "_start:\n    li t0, CONSOLE_TX\n    li t1, 'h'\n    sw t1, 0(t0)\n"
     "    li t1, 'i'\n    sw t1, 0(t0)\n    halt\n"),
)

#: Inline programs the admission gate must reject, as
#: (label, source, expected error kind).
INLINE_REJECT = (
    ("bad_mnemonic", "_start:\n    frobnicate x1\n", "assembly_error"),
    ("fall_off_end", "_start:\n    li t0, 1\n    addi t0, t0, 1\n",
     "lint_rejected"),
    ("menter_no_routines", "_start:\n    menter 0\n    halt\n",
     "lint_rejected"),
)

#: Request classes per fleet block of 20 (70% / 10% / 5% / 15%).
BLOCK_MIX = (("short", 14), ("inline", 2), ("reject", 1), ("long", 3))
BLOCK_SIZE = sum(n for _, n in BLOCK_MIX)


def iters_for(program: str, size: int) -> int:
    """Loop iterations that make *program* retire about *size*
    instructions."""
    return max(1, round(size / PER_ITER[program]))


def sim_grid(engine: str, minimal: bool = False) -> list:
    """Every (program, size) cell a sim stream on *engine* can emit.
    *minimal* keeps only the smallest rung (the smoke-test shape)."""
    ladder = SIM_LADDERS[engine][:1] if minimal else SIM_LADDERS[engine]
    return [(p, s) for p in SIM_PROGRAMS for s in ladder]


class SimStream:
    """Rounds of sim jobs: each round is the grid in a seeded order."""

    def __init__(self, seed: int, engine: str, minimal: bool = False):
        self._rng = random.Random(f"sim:{engine}:{seed}")
        self._grid = sim_grid(engine, minimal)

    def next_round(self) -> list:
        cells = list(self._grid)
        self._rng.shuffle(cells)
        return cells


def fleet_request(kind: str, program: str) -> tuple:
    """``(request_body, golden_key)`` for one fleet request; rejects
    carry no golden (their expected error kind is checked instead)."""
    if kind in ("short", "long"):
        size = FLEET_SHORT if kind == "short" else FLEET_LONG
        iters = iters_for(program, size)
        return ({"workload": program, "iters": iters},
                f"workload:{program}:{iters}")
    for label, source in INLINE_OK:
        if label == program:
            return {"source": source, "label": label}, f"source:{label}"
    for label, source, _kind in INLINE_REJECT:
        if label == program:
            return {"source": source, "label": label}, None
    raise KeyError(program)


def expected_reject(label: str) -> str:
    """The error kind the gate must return for reject program *label*."""
    return next(k for name, _, k in INLINE_REJECT if name == label)


class FleetStream:
    """Blocks of fleet requests, as ``(kind, program)`` pairs.

    Within a class, programs cycle through seeded permutations, so the
    long requests of a run are spread evenly over the named programs.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"fleet:{seed}")
        self._cycles = {}

    def _pick(self, kind: str) -> str:
        pool = self._cycles.get(kind)
        if not pool:
            if kind in ("short", "long"):
                names = list(PER_ITER)
            elif kind == "inline":
                names = [label for label, _ in INLINE_OK]
            else:
                names = [label for label, _, _ in INLINE_REJECT]
            self._rng.shuffle(names)
            pool = self._cycles[kind] = names
        return pool.pop()

    def next_block(self) -> list:
        kinds = [kind for kind, n in BLOCK_MIX for _ in range(n)]
        self._rng.shuffle(kinds)
        return [(kind, self._pick(kind)) for kind in kinds]


def fleet_cells() -> list:
    """Every admitted (kind, program) the fleet stream can emit."""
    cells = [(k, p) for k in ("short", "long") for p in PER_ITER]
    cells += [("inline", label) for label, _ in INLINE_OK]
    return cells
