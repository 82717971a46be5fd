"""MJIT generates each region's source once per process.

``compile_region`` looks a region up by content (``jit._content_key``):
the codegen mode and, per member, every block attribute the codegen
reads.  A hit reuses the code object and a namespace template, and binds
only the machine's own members (and MRAM version).  These tests pin the
contract that makes that exact: a source taken from the table equals the
source the codegen generates afresh for the same members, the key holds
everything the codegen reads, and the template holds nothing of a
machine.  They also pin the sources' shape: every function leaves
through its one epilogue.
"""

from __future__ import annotations

import re

import pytest

from repro.cpu import jit
from repro.cpu.exceptions import TrapException
from repro.isa.instruction import Instruction
from repro.machine.builder import MachineConfig, build_metal_machine
from repro.osdemo.scheduler import boot_scheduler_demo
from repro.profile.workloads import WORKLOADS, workload_source
from repro.verify.corpus import MODES, harvest_seed

#: The eight perfbench programs: the seven workloads and the scheduler.
PROGRAMS = tuple(WORKLOADS) + ("preemptive_scheduler",)


def _program_machine(name, engine):
    """*name* run for a while on the default config of *engine*, with
    budgets that end inside blocks, so prefixes compile too."""
    config = MachineConfig(engine=engine)
    if name == "preemptive_scheduler":
        machine = boot_scheduler_demo(config=config)
    else:
        workload = WORKLOADS[name]
        machine = build_metal_machine(list(workload.routines), config=config)
        if workload.setup is not None:
            workload.setup(machine)
        program = machine.assemble(workload_source(name, 300))
        machine.load(program)
        machine.core.pc = program.symbols["_start"]
    for budget in (7, 13, 5_000, 3_000):
        machine.run(max_instructions=budget, raise_on_limit=False)
    return machine


def _stale_sources(tcache):
    """The regions of *tcache* whose compiled source differs from the
    source the codegen generates afresh for their members."""
    return [region for region in tcache.iter_regions()
            if region[0].jit_fn.__jit_source__
            != jit._Codegen(region, tcache.line_size,
                            tcache.scoreboard).generate()]


def _assert_table_sources_fresh(tcaches):
    regions = sum(len(list(tc.iter_regions())) for tc in tcaches)
    assert regions
    for tcache in tcaches:
        assert _stale_sources(tcache) == []


@pytest.mark.parametrize("engine", ("functional", "pipeline"))
def test_perfbench_programs_reuse_fresh_sources(engine):
    """Each perfbench program runs on two machines, the second taking
    its sources from the table: every region's source on both equals
    freshly generated source."""
    for name in PROGRAMS:
        first = _program_machine(name, engine)
        second = _program_machine(name, engine)
        assert (second.perf.tcache.jit_blocks
                == first.perf.tcache.jit_blocks), name
        _assert_table_sources_fresh((first.sim.tcache, second.sim.tcache))
        assert any(second.sim.tcache.is_prefix(region[0])
                   for region in second.sim.tcache.iter_regions()), name


@pytest.mark.parametrize("engine", ("functional", "pipeline"))
def test_every_region_function_has_one_return(engine):
    """Every exit of a region function leaves through its one epilogue:
    each function the perfbench programs generate has exactly one
    ``return``.  In the analytic modes the scheduler's 44- and 45-entry
    context save and restore blocks, each load and store an exit,
    compile to under 1,000 lines each (3,244 and 3,046 when every exit
    spilled the register file inline)."""
    jit._REGIONS.clear()
    lines = {}
    for name in PROGRAMS:
        tcache = _program_machine(name, engine).sim.tcache
        if name == "preemptive_scheduler":
            lines = {len(block.entries):
                     block.jit_fn.__jit_source__.count("\n")
                     for block, *others in tcache.iter_regions()
                     if not others and not tcache.is_prefix(block)}
    sources = [source for source, *_rest in jit._REGIONS.values()]
    assert len(sources) > 50
    for source in sources:
        assert len(re.findall(r"^ +return\b", source, re.M)) == 1, source
    if engine == "functional":
        assert lines[44] < 1000 and lines[45] < 1000, lines


def test_corpus_slice_reuses_fresh_sources():
    """The MVTV corpus machines of a slice of seeds, harvested twice in
    every codegen mode."""
    for seed in range(8):
        for mode in MODES:
            _assert_table_sources_fresh(
                [harvest_seed(seed, mode) for _ in range(2)])


class _Starts:
    """A block's ``starts`` that records the indices read."""

    def __init__(self, starts, read):
        self._starts = starts
        self._read = read

    def __getitem__(self, index):
        self._read.add(("starts", index))
        return self._starts[index]


class _Member:
    """A block proxy that records the attributes read."""

    def __init__(self, block, read):
        self._block = block
        self._read = read

    def __getattr__(self, name):
        value = getattr(self._block, name)
        if name == "starts":
            return _Starts(value, self._read)
        self._read.add(name)
        return value


@pytest.mark.parametrize("engine", ("functional", "pipeline"))
def test_codegen_reads_only_keyed_attributes(engine):
    """The codegen, run over member proxies of every region of the
    Metal-heavy and scheduler programs (multi-member and prefix regions
    among them), reads no block attribute the content key leaves out."""
    keyed, read = set(), set()
    for name in ("syscall_heavy", "intercept_heavy", "poly_branch",
                 "preemptive_scheduler"):
        tcache = _program_machine(name, engine).sim.tcache
        mode = (tcache.line_size, tcache.scoreboard)
        for region in tcache.iter_regions():
            jit._content_key(
                tuple(_Member(block, keyed) for block in region), *mode)
            source = jit._Codegen(
                tuple(_Member(block, read) for block in region),
                *mode).generate()
            assert source == region[0].jit_fn.__jit_source__
    assert keyed == {"start", "end", "mram", "chainable", "entries",
                     ("starts", -1)}
    assert read and read <= keyed, read - keyed


def _machine_free(value) -> bool:
    """Whether *value* is an instruction object, a schedule (a tuple of
    ints, None and tuples of them) or an intercept trap."""
    if isinstance(value, tuple):
        return all(_machine_free(item) for item in value)
    return value is None or isinstance(value, (int, Instruction,
                                               TrapException))


def test_template_holds_no_block_or_machine():
    """Every template in the table holds only instruction objects,
    schedules and intercept traps: no block, and nothing that leads to
    a machine."""
    for engine in ("functional", "pipeline"):
        for name in PROGRAMS:
            _program_machine(name, engine)
    templates = [template for _source, _code, template, _generic
                 in jit._REGIONS.values()]
    assert templates and any(templates)
    for template in templates:
        for key, value in template.items():
            assert not key.startswith("_b") and key != "_cv", key
            assert _machine_free(value), (key, type(value))
