"""Functional engine behaviours: run control, WFI, limits, panics."""

import types

import pytest

from repro import MRoutine, build_metal_machine, build_trap_machine
from repro.errors import (
    ExecutionLimitExceeded,
    GuestPanic,
    HaltedError,
)
from repro.machine.builder import MachineConfig


def _stride_wait(sim):
    """The WFI sleep one ``wfi_stride`` at a time, polling the pending
    lines after each stride: the reference the engine's jump to the
    horizon must match."""
    core = sim.core
    stride = core.timing.wfi_stride
    waited = 0
    while True:
        if core.irq.pending_bitmap():
            core.waiting = False
            return
        sim.timer.note_event(stride)
        sim._sync_devices()
        waited += stride
        if waited > sim.MAX_WFI_CYCLES:
            raise GuestPanic("wfi never woke (no pending event source)")


#: Starts a block-device read (its DMA lands 800 cycles later, with the
#: completion interrupt enabled if ``irq`` is 1), then sleeps.
WFI_DMA = """
_start:
    li   t0, BLK_SECTOR
    li   t1, 3
    sw   t1, 0(t0)
    li   t0, BLK_DMA_ADDR
    li   t1, 0x3C00
    sw   t1, 0(t0)
    li   t0, BLK_IRQ_CTRL
    li   t1, {irq}
    sw   t1, 0(t0)
    li   t0, BLK_CMD
    li   t1, 1
    sw   t1, 0(t0)
    wfi
    addi a0, a0, 1
    halt
"""


class TestRunControl:
    def test_run_returns_halt_reason(self):
        m = build_trap_machine(with_caches=False)
        res = m.load_and_run("_start:\n    halt\n")
        assert res.stop_reason == "halt"
        assert res.halted

    def test_stop_pc(self):
        m = build_trap_machine(with_caches=False)
        prog = m.assemble("""
_start:
    li   a0, 1
target:
    li   a0, 2
    halt
""", base=0x1000)
        m.load(prog)
        m.core.pc = 0x1000
        res = m.sim.run(stop_pc=prog.symbols["target"])
        assert res.stop_reason == "stop_pc"
        assert m.reg("a0") == 1  # stopped before the second li

    def test_limit_raises_by_default(self):
        m = build_trap_machine(with_caches=False)
        prog = m.assemble("_start:\nspin:\n    j spin\n")
        m.load(prog)
        m.core.pc = 0x1000
        with pytest.raises(ExecutionLimitExceeded):
            m.sim.run(max_instructions=100)

    def test_limit_soft_mode(self):
        m = build_trap_machine(with_caches=False)
        prog = m.assemble("_start:\nspin:\n    j spin\n", base=0x1000)
        m.load(prog)
        m.core.pc = 0x1000
        res = m.sim.run(max_instructions=100, raise_on_limit=False)
        assert res.stop_reason == "limit"
        assert res.instructions == 100

    def test_step_after_halt_raises(self):
        m = build_trap_machine(with_caches=False)
        m.load_and_run("_start:\n    halt\n")
        with pytest.raises(HaltedError):
            m.sim.step()

    def test_cpi_property(self):
        m = build_trap_machine(with_caches=False)
        res = m.load_and_run("_start:\n    nop\n    nop\n    halt\n")
        assert res.cpi == res.cycles / res.instructions

    def test_stop_pc_ignored_in_metal_mode(self):
        # A Metal-mode pc numerically equal to stop_pc must not stop the run.
        r = MRoutine(name="r", entry=0, source="nop\n" * 8 + "mexit\n")
        m = build_metal_machine([r], with_caches=False)
        prog = m.assemble("_start:\n    menter MR_R\n    halt\n", base=0x1000)
        m.load(prog)
        m.core.pc = 0x1000
        # MRAM offsets are tiny; pick one the routine will pass through
        res = m.sim.run(stop_pc=8, max_instructions=1000,
                        raise_on_limit=False)
        assert res.stop_reason == "halt"


class TestWfi:
    def test_wfi_without_controller_panics(self):
        from repro.cpu.core import CpuCore
        from repro.cpu.functional import FunctionalSimulator
        from repro.mem.bus import MemoryBus
        from repro.asm import assemble

        bus = MemoryBus()
        bus.attach_ram(0, 0x4000)
        core = CpuCore(bus=bus, irq=None)
        sim = FunctionalSimulator(core)
        prog = assemble("_start:\n    wfi\n    halt\n", base=0x100)
        prog.load_into(bus)
        core.pc = 0x100
        with pytest.raises(GuestPanic):
            sim.run(max_instructions=100)

    def test_wfi_gives_up_eventually(self):
        # irq controller exists but nothing ever fires
        m = build_trap_machine(with_caches=False)
        with pytest.raises(GuestPanic):
            m.load_and_run("_start:\n    wfi\n    halt\n",
                           max_instructions=10)

    @pytest.mark.parametrize("engine", ("functional", "pipeline"))
    @pytest.mark.parametrize("compare,blk_irq", [
        (1, 0), (7, 0), (8, 0), (9, 0), (333, 0), (1000, 0), (5003, 0),
        (3000, 0), (100_000, 1)])
    def test_wfi_wakes_where_the_stride_loop_does(self, engine, compare,
                                                  blk_irq):
        """The jump to the horizon wakes at the stride loop's cycle,
        with its timer count and instret, for several compare values,
        with a block-device DMA landing mid-wait (and, with its
        completion interrupt enabled, waking the core)."""
        outcomes = []
        for reference in (True, False):
            m = build_trap_machine(config=MachineConfig(engine=engine))
            if reference:
                m.sim._wait_for_interrupt = types.MethodType(_stride_wait,
                                                             m.sim)
            m.blockdev.preload(3, bytes(range(1, 9)))
            m.timer.compare = compare
            m.timer.irq_enabled = True
            m.load_and_run(WFI_DMA.format(irq=blk_irq))
            outcomes.append((m.cycles, m.timer.count, m.core.instret,
                             m.reg("a0"), m.read_bytes(0x3C00, 8),
                             m.blockdev.completed,
                             getattr(m.sim, "stalls", None)))
        assert outcomes[0] == outcomes[1]
        if compare > 2000:
            # The DMA landed mid-wait.
            assert outcomes[1][5] == 1
            assert outcomes[1][4] == bytes(range(1, 9))

    def test_wfi_advances_device_time(self):
        m = build_trap_machine(with_caches=False)
        m.timer.compare = 1000
        m.timer.irq_enabled = True
        m.load_and_run("_start:\n    wfi\n    halt\n")
        # woke up at/after the timer compare point
        assert m.timer.count >= 1000
        assert m.core.halted


class TestPanics:
    def test_trap_without_vector_names_cause(self):
        m = build_trap_machine(with_caches=False)
        with pytest.raises(GuestPanic) as err:
            m.load_and_run("_start:\n    ecall\n")
        assert "mtvec" in str(err.value)

    def test_double_fault_names_routine(self):
        bad = MRoutine(name="crasher", entry=0, source="""
            li   t0, 0xE0000000
            mpld a0, 0(t0)       # bus error inside the mroutine
            mexit
        """)
        m = build_metal_machine([bad], with_caches=False)
        with pytest.raises(GuestPanic) as err:
            m.load_and_run("_start:\n    menter MR_CRASHER\n    halt\n")
        assert "crasher" in str(err.value)

    def test_decode_error_in_guest_becomes_trap(self):
        m = build_trap_machine(with_caches=False)
        m.load_and_run("""
_start:
    li   t0, handler
    csrrw zero, CSR_MTVEC, t0
    .word 0x0000707F
    j    done
handler:
    csrrs a0, CSR_MCAUSE, zero
    csrrs a1, CSR_MTVAL, zero
    halt
done:
""")
        assert m.reg("a0") == 1
        assert m.reg("a1") == 0x0000707F  # the offending word in mtval


class TestDeviceTicking:
    def test_timer_tracks_cycle_count(self):
        m = build_trap_machine(with_caches=False)
        m.load_and_run("_start:\n" + "    nop\n" * 50 + "    halt\n")
        assert m.timer.count == m.cycles

    def test_nic_arrivals_follow_simulated_time(self):
        m = build_trap_machine(with_caches=False)
        m.nic.schedule_packet(40, b"x")
        m.load_and_run("""
_start:
    li   t0, NIC_RX_STATUS
    lw   a0, 0(t0)        # likely before arrival
    li   t1, 200
spin:
    addi t1, t1, -1
    bnez t1, spin
    lw   a1, 0(t0)        # well after arrival
    halt
""")
        assert m.reg("a1") == 1
