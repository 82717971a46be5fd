"""Sparse snapshot capsules and the page-diff restore.

A capsule holds only the RAM pages with a non-zero byte
(``PhysicalMemory.pages``), and a restore rewrites only the pages whose
bytes differ (``PhysicalMemory.load_pages``), through the write hook, so
the translation cache keeps every block compiled from an unchanged
page.  These tests pin the image format against a plain byte image,
the hook traffic of a restore, the compiled code a restore keeps, and
the serving shard's one restore per dispatch.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import MRoutine, build_metal_machine
from repro.machine import snapshot as snapshot_mod
from repro.machine.snapshot import restore_snapshot, take_snapshot
from repro.mem.memory import CHUNK_BYTES, PAGE_BYTES, PhysicalMemory
from repro.profile.workloads import WORKLOADS, build_workload, workload_source
from repro.serve.api import DEFAULT_BUDGET, parse_request
from repro.serve.shard import ShardWorker

ENGINES = ("functional", "pipeline")
NOOP = MRoutine(name="noop", entry=0, source="mexit\n")
BASE = 0x4000


# ---------------------------------------------------------------------------
# pages() / load_pages() against a plain byte image
# ---------------------------------------------------------------------------

#: RAM sizes that end mid-page and mid-chunk, and a few round ones.
SIZES = st.one_of(
    st.integers(min_value=1, max_value=2 * CHUNK_BYTES + 3 * PAGE_BYTES + 99),
    st.sampled_from([PAGE_BYTES, CHUNK_BYTES, CHUNK_BYTES + 1,
                     2 * CHUNK_BYTES - 1, 3 * PAGE_BYTES + 7]),
)


def _writes(size):
    """Short writes, many of them on either side of a chunk boundary or
    in the last (possibly partial) page; some write zeros."""
    hot = sorted({o for b in range(0, size + 1, CHUNK_BYTES)
                  for o in (b - 3, b - 1, b, b + 1)
                  if 0 <= o < size}
                 | {max(0, size - 5), size - 1,
                    size - 1 - (size - 1) % PAGE_BYTES})
    offsets = st.one_of(st.sampled_from(hot),
                        st.integers(min_value=0, max_value=size - 1))
    payloads = st.one_of(st.binary(min_size=1, max_size=9),
                         st.integers(1, 9).map(bytes))
    return st.lists(st.tuples(offsets, payloads), max_size=12)


def _apply(ram, image, writes):
    for off, payload in writes:
        payload = payload[:ram.size - off]
        ram.write_bytes(ram.base + off, payload)
        if image is not None:
            image[off:off + len(payload)] = payload


def _page_spans(size):
    return [(off, min(off + PAGE_BYTES, size))
            for off in range(0, size, PAGE_BYTES)]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pages_and_load_pages_match_a_byte_image(data):
    size = data.draw(SIZES, label="size")
    src = PhysicalMemory(size, base=BASE)
    dst = PhysicalMemory(size, base=BASE)
    image = bytearray(size)
    _apply(src, image, data.draw(_writes(size), label="capsule writes"))
    _apply(dst, None, data.draw(_writes(size), label="target writes"))

    pages = src.pages()
    assert pages == {off: bytes(image[off:end])
                     for off, end in _page_spans(size) if any(image[off:end])}

    before = bytes(dst.data)
    calls = []
    dst.write_hook = lambda addr, length: calls.append((addr, length))
    dst.load_pages(pages)
    assert bytes(dst.data) == bytes(image)
    # One hook call per page that differed, none for an equal page.
    assert calls == [(BASE + off, end - off) for off, end in _page_spans(size)
                     if before[off:end] != image[off:end]]


def test_capsule_from_another_ram_size_is_refused():
    small = build_metal_machine([NOOP], with_caches=False,
                                ram_bytes=1024 * 1024)
    large = build_metal_machine([NOOP], with_caches=False)
    with pytest.raises(ValueError, match=r"1048576.*4194304"):
        restore_snapshot(large, take_snapshot(small))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_booted_workload_capsule_is_small(name):
    machine = build_workload(name, engine="functional")
    program = machine.assemble(workload_source(name, 200), base=0x1000)
    machine.load(program)
    assert len(pickle.dumps(take_snapshot(machine))) < 64 * 1024


# ---------------------------------------------------------------------------
# a restore keeps the code compiled from unchanged pages
# ---------------------------------------------------------------------------

#: Code on page 1, its data on page 8: a rerun from the snapshot taken
#: at ``_start`` rewrites only the data page.
DATA_LOOP = """
_start:
    li   s0, 0x8000
    li   t0, 300
    li   a0, 0
loop:
    lw   t1, 0(s0)
    add  t1, t1, t0
    sw   t1, 0(s0)
    add  a0, a0, t1
    addi t0, t0, -1
    bnez t0, loop
    sw   a0, 4(s0)
    halt
"""


def _rerun_after_restore(engine, tcache):
    machine = build_metal_machine([NOOP], engine=engine, tcache=tcache)
    machine.load(machine.assemble(DATA_LOOP, base=0x1000))
    machine.core.pc = 0x1000
    snap = take_snapshot(machine)
    machine.run(max_instructions=10_000)
    restore_snapshot(machine, snap)
    compiled = machine.perf.tcache.blocks_compiled
    result = machine.run(max_instructions=10_000)
    core = machine.core
    state = (result.instructions, result.cycles, tuple(core.regs), core.pc,
             bytes(machine.ram.data[0x8000:0x9000]),
             core.icache.stats.hits, core.icache.stats.misses,
             core.dcache.stats.hits, core.dcache.stats.misses)
    return machine.perf.tcache.blocks_compiled - compiled, state


@pytest.mark.parametrize("engine", ENGINES)
def test_restore_keeps_blocks_on_unchanged_pages(engine):
    recompiled, state = _rerun_after_restore(engine, True)
    assert recompiled == 0
    assert _rerun_after_restore(engine, False)[1] == state


# ---------------------------------------------------------------------------
# the serving shard: one restore per dispatch, interleaved jobs
# ---------------------------------------------------------------------------

#: Stores into 40 pages from 64 KiB up (160 KiB, so more than one scan
#: chunk), then zeroes every other one: how many pages hold data
#: depends on how far the job has run.
PAGE_WALK = """
_start:
    li   s0, 0x10000
    li   s1, 40
    li   t0, 0
fill:
    slli t1, t0, 12
    add  t1, t1, s0
    addi t2, t0, 1
    sw   t2, 0(t1)
    sw   t2, 2044(t1)
    addi t0, t0, 1
    blt  t0, s1, fill
    li   t0, 0
clear:
    slli t1, t0, 12
    add  t1, t1, s0
    sw   zero, 0(t1)
    sw   zero, 2044(t1)
    addi t0, t0, 2
    blt  t0, s1, clear
    halt
"""


def _spec(source, job_id):
    return parse_request({"source": source}, job_id, DEFAULT_BUDGET)


def _job(spec, quantum, previous=None):
    job = {"spec": spec, "quantum": quantum,
           "budget_left": spec.max_instructions, "resume": None,
           "console": "", "cycles_done": 0}
    if previous is not None:
        job.update(resume=previous["snapshot"], console=previous["console"],
                   cycles_done=previous["cycles_done"])
    return job


def test_interleaved_jobs_on_one_shard_end_bit_identical():
    whole = ShardWorker("ref").execute(_job(_spec(PAGE_WALK, "ref"), 10**6))
    assert whole["kind"] == "done" and whole["error"] is None

    worker = ShardWorker("w0")
    jobs = {"a": [_spec(PAGE_WALK, "a"), 37, None],
            "b": [_spec(PAGE_WALK, "b"), 101, None]}
    finished = {}
    while len(finished) < len(jobs):
        for name, (spec, quantum, last) in jobs.items():
            if name in finished:
                continue
            response = worker.execute(_job(spec, quantum, last))
            jobs[name][2] = response
            if response["kind"] != "preempted":
                finished[name] = response
    assert worker.stats["cold_boots"] == 1
    assert worker.stats["resumes"] > 10
    for response in finished.values():
        assert response["error"] is None
        assert response["result"]["digest"] == whole["result"]["digest"]
        assert response["result"]["cycles"] == whole["result"]["cycles"]


def test_resumed_quantum_restores_once_and_keeps_its_code(monkeypatch):
    restores = []
    real = snapshot_mod.restore_snapshot

    def counting(machine, snap):
        restores.append(snap)
        real(machine, snap)

    monkeypatch.setattr(snapshot_mod, "restore_snapshot", counting)
    spec = parse_request({"workload": "tight_loop", "iters": 2000}, "job",
                         DEFAULT_BUDGET)
    worker = ShardWorker("w0")
    first = worker.execute(_job(spec, 3_000))
    assert first["kind"] == "preempted"
    assert restores == []                      # a cold boot restores nothing
    second = worker.execute(_job(spec, 3_000, first))
    assert second["resumed"] and second["warm"]
    assert restores == [first["snapshot"]]
    # Only the block at the resume pc, which is mid-block, is new.
    assert second["metrics"]["counters"]["blocks_compiled"] <= 1
