"""Machine builder and composition tests."""

import gc
import weakref

import pytest

from repro import (
    MachineConfig,
    MRoutine,
    TimingModel,
    build_metal_machine,
    build_palcode_machine,
    build_trap_machine,
    palcode_timing,
)


NOOP = [MRoutine(name="noop", entry=0, source="mexit\n")]


class TestConfigs:
    def test_engine_selection(self):
        from repro.cpu import FunctionalSimulator, PipelineSimulator

        f = build_trap_machine(engine="functional")
        p = build_trap_machine(engine="pipeline")
        assert isinstance(f.sim, FunctionalSimulator)
        assert isinstance(p.sim, PipelineSimulator)
        assert not isinstance(f.sim, PipelineSimulator)

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            build_trap_machine(engine="quantum")

    def test_cache_toggle(self):
        with_c = build_trap_machine(with_caches=True)
        without = build_trap_machine(with_caches=False)
        assert with_c.core.icache is not None
        assert without.core.icache is None

    def test_ram_size(self):
        m = build_trap_machine(ram_bytes=1 << 16)
        assert m.ram.size == 1 << 16

    def test_symbol_environment(self):
        m = build_metal_machine(NOOP)
        for sym in ("CONSOLE_TX", "CAUSE_ECALL", "MR_NOOP", "PTE_R",
                    "CSR_MTVEC", "IRQ_LINE_NIC", "PRIV_USER"):
            assert sym in m.symbols, sym

    def test_extra_symbols(self):
        m = build_trap_machine(extra_symbols={"ANSWER": 42})
        prog = m.assemble("li a0, ANSWER\nhalt\n")
        assert prog.size == 12

    def test_trap_machine_has_no_metal(self):
        m = build_trap_machine()
        assert m.core.metal is None
        assert m.metal_image is None


class TestDevicesWired:
    def test_device_roster(self):
        m = build_trap_machine()
        names = [d.name for d in m.bus.devices]
        assert names == ["console", "timer", "nic", "blockdev"]

    def test_nic_dma_bus_wired(self):
        m = build_trap_machine()
        assert m.nic.bus is m.bus
        assert m.blockdev.bus is m.bus

    @pytest.mark.parametrize("engine", ["functional", "pipeline"])
    def test_dropped_machine_frees_ram_without_the_collector(self, engine):
        """The DMA devices hold the bus weakly, so nothing cyclic keeps
        the RAM of a Metal machine that ran a program alive once the
        last reference to the machine is gone."""
        gc.disable()
        try:
            m = build_metal_machine(NOOP, engine=engine)
            m.load_and_run("""
_start:
    li   s0, 20
    li   s1, 0x3000
loop:
    menter 0
    sw   s0, 0(s1)
    addi s0, s0, -1
    bnez s0, loop
    halt
""")
            assert m.perf.tcache.jit_instructions > 0
            ram = weakref.ref(m.ram)
            del m
            assert ram() is None
        finally:
            gc.enable()

    def test_irq_lines(self):
        m = build_trap_machine()
        m.timer.compare = 0
        m.timer.irq_enabled = True
        assert m.irq.highest_pending() == 0


class TestPalcode:
    def test_palcode_timing_shape(self):
        t = palcode_timing()
        assert t.decode_replacement is False
        assert t.mram_fetch > TimingModel().mram_fetch

    def test_noop_call_near_18_cycles(self):
        """Calibration check: the §5 Alpha figure (~18-cycle no-op call)."""
        def per_call(machine):
            loop = """
_start:
    li   s0, 500
loop:
    menter MR_NOOP
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
            empty = """
_start:
    li   s0, 500
loop:
    addi s0, s0, -1
    bnez s0, loop
    halt
"""
            m1 = machine()
            m1.load_and_run(loop)
            m2 = machine()
            m2.load_and_run(empty)
            return (m1.cycles - m2.cycles) / 500

        # Warm caches: the comparison isolates transition cost, not the
        # caller's own fetch behaviour.
        pal = per_call(lambda: build_palcode_machine(
            [MRoutine(name="noop", entry=0, source="mexit\n")],
        ))
        metal = per_call(lambda: build_metal_machine(
            [MRoutine(name="noop", entry=0, source="mexit\n")],
        ))
        assert 15 <= pal <= 21       # "approximately 18 cycles"
        assert metal <= 3            # "virtually zero overhead"
        assert pal / metal >= 5      # Metal is an order cheaper


class TestMachineHelpers:
    def test_reg_accessors(self):
        m = build_trap_machine()
        m.set_reg("a0", 9)
        assert m.reg("a0") == 9

    def test_memory_helpers(self):
        m = build_trap_machine()
        m.write_word(0x100, 0x1234)
        assert m.read_word(0x100) == 0x1234
        m.write_bytes(0x200, b"xyz")
        assert m.read_bytes(0x200, 3) == b"xyz"

    def test_inventory_metal(self):
        m = build_metal_machine(NOOP)
        inv = m.inventory()
        assert inv["mroutines"]["noop"]["entry"] == 0
        assert inv["mreg_count"] == 32

    def test_inventory_trap(self):
        inv = build_trap_machine().inventory()
        assert "mroutines" not in inv

    def test_load_and_run_starts_at_start_label(self):
        m = build_trap_machine()
        m.load_and_run("""
    nop
_start:
    li a0, 3
    halt
""", base=0x1000)
        assert m.reg("a0") == 3


class TestSymbolEnvironment:
    """Boot, ``reload_mroutines``, the serving gate and ``repro lint``
    assemble against one symbol environment, so code that assembles in
    one of them assembles in all four."""

    def test_every_name_assembles_everywhere(self):
        from repro.analysis.lint import lint_routines
        from repro.machine.builder import DEFAULT_RAM_BYTES, assembler_symbols
        from repro.serve.api import DEFAULT_BUDGET, parse_request
        from repro.serve.gate import admit_source

        names = sorted(assembler_symbols())
        assert {"CAUSE_ECALL", "CSR_MSTATUS", "TIMER_COMPARE"} <= set(names)
        body = "".join(f"    li   t0, {name}\n" for name in names)
        routine = MRoutine(name="names", entry=0, source=body + "    mexit\n")
        machine = build_metal_machine([routine])            # boot
        machine.reload_mroutines([routine])
        results, _extra = lint_routines([routine])          # repro lint
        assert list(results) == ["names"]
        spec = parse_request({"source": "_start:\n" + body + "    halt\n"},
                             "names", DEFAULT_BUDGET)
        admit_source(spec, DEFAULT_RAM_BYTES)               # the gate
        # Guest code sees the same names, plus the image's MR_* entries.
        assert set(names) <= set(machine.symbols)

    @pytest.mark.parametrize("build", ["metal", "nested"])
    def test_reload_sees_the_configs_extra_symbols(self, build):
        """A routine that boots naming one of the config's
        ``extra_symbols`` reloads too, on both Metal builders."""
        from repro.machine.builder import build_nested_metal_machine

        routine = MRoutine(name="r", entry=0,
                           source="li t0, FOO\nmexit\n")
        builder = (build_metal_machine if build == "metal"
                   else build_nested_metal_machine)
        machine = builder([routine], extra_symbols={"FOO": 5})
        machine.reload_mroutines([routine])
        assert machine.metal_image.routines["r"].entry == 0
