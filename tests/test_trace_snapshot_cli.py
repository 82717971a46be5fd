"""Tracer, snapshot/restore and CLI runner tests."""

import subprocess
import sys

import pytest

from repro import MRoutine, build_metal_machine, build_trap_machine
from repro.machine.snapshot import restore_snapshot, take_snapshot
from repro.machine.trace import Tracer

PROGRAM = """
_start:
    li   a0, 3
    li   a1, 4
    add  a2, a0, a1
    halt
"""


class TestTracer:
    def test_records_retired_stream(self):
        m = build_trap_machine(with_caches=False)
        tracer = Tracer(m)
        with tracer:
            m.load_and_run(PROGRAM)
        mnemonics = [r.mnemonic for r in tracer.records]
        assert mnemonics[-2:] == ["add", "halt"]
        assert "lui" in mnemonics  # li expansion visible
        assert all(not r.in_metal for r in tracer.records)

    def test_limit_drops(self):
        m = build_trap_machine(with_caches=False)
        tracer = Tracer(m, limit=2)
        with tracer:
            m.load_and_run(PROGRAM)
        assert len(tracer) == 2
        assert tracer.dropped > 0
        assert "dropped" in tracer.format()

    def test_mnemonic_filter(self):
        m = build_trap_machine(with_caches=False)
        tracer = Tracer(m, mnemonics={"add"})
        with tracer:
            m.load_and_run(PROGRAM)
        assert [r.mnemonic for r in tracer.records] == ["add"]

    def test_metal_mode_tracing(self):
        noop = MRoutine(name="noop", entry=0, source="nop\nmexit\n")
        m = build_metal_machine([noop], with_caches=False)
        tracer = Tracer(m, only_metal=True)
        with tracer:
            m.load_and_run("_start:\n    menter MR_NOOP\n    halt\n")
        # only the instructions fetched from MRAM count as Metal-mode rows
        # (nop is canonically addi zero, zero, 0)
        assert [r.mnemonic for r in tracer.records] == ["addi", "mexit"]
        assert all(r.in_metal for r in tracer.records)
        assert "mexit" in tracer.records[-1].text

    def test_histogram(self):
        m = build_trap_machine(with_caches=False)
        tracer = Tracer(m)
        with tracer:
            m.load_and_run(PROGRAM)
        hist = tracer.mnemonic_histogram()
        assert hist["addi"] >= 2  # the li low halves

    def test_detach_restores_hook(self):
        m = build_trap_machine(with_caches=False)
        assert m.sim.step_hooks == []
        with Tracer(m):
            assert len(m.sim.step_hooks) == 1
        assert m.sim.step_hooks == []

    def test_format_contains_pc_and_text(self):
        m = build_trap_machine(with_caches=False)
        tracer = Tracer(m)
        with tracer:
            m.load_and_run(PROGRAM)
        text = tracer.format()
        assert "add a2, a0, a1" in text


class TestSnapshot:
    def test_roundtrip_trap_machine(self):
        m = build_trap_machine(with_caches=False)
        m.load_and_run("""
_start:
    li   s0, 77
    li   t0, 0x2000
    sw   s0, 0(t0)
    halt
""")
        snap = take_snapshot(m)
        # perturb everything
        m.core.regs[8] = 0
        m.core.pc = 0
        m.write_word(0x2000, 0)
        m.core.csrs.mtvec = 0x9999
        restore_snapshot(m, snap)
        assert m.reg("s0") == 77
        assert m.read_word(0x2000) == 77
        assert m.core.csrs.mtvec == snap.csrs["mtvec"]
        assert m.core.halted

    def test_roundtrip_metal_state(self):
        r = MRoutine(name="r", entry=0, data_words=1, source="""
            wmr  m7, a0
            mst  a0, R_DATA(zero)
            mexit
        """, mregs=(7,))
        m = build_metal_machine([r], with_caches=False)
        m.load_and_run("_start:\n    li a0, 0x55\n    menter MR_R\n    halt\n")
        snap = take_snapshot(m)
        m.core.metal.mregs.write(7, 0)
        m.core.metal.mram.store_word(0, 0)
        restore_snapshot(m, snap)
        assert m.mreg(7) == 0x55
        assert m.core.metal.mram.load_word(0) == 0x55

    def test_mram_code_captured(self):
        """MRAM *code* is snapshot state too (the MFI recovery layer
        undoes code-segment corruption by restoring a checkpoint), and
        restoring a different image bumps code_version so stale
        predecoded blocks die."""
        r = MRoutine(name="r", entry=0, source="nop\nmexit\n")
        m = build_metal_machine([r], with_caches=False)
        mram = m.core.metal.mram
        pristine = bytes(mram.code)
        snap = take_snapshot(m)
        mram.corrupt("code", 0, 0x40)
        version = mram.code_version
        restore_snapshot(m, snap)
        assert bytes(mram.code) == pristine
        assert mram.code_version > version
        # No gratuitous bump when the code did not change.
        version = mram.code_version
        restore_snapshot(m, snap)
        assert mram.code_version == version

    def test_restore_resumes_execution(self):
        m = build_trap_machine(with_caches=False)
        prog = m.assemble("""
_start:
    li   s0, 5
mid:
    addi s0, s0, 1
    halt
""", base=0x1000)
        m.load(prog)
        m.core.pc = 0x1000
        # run up to `mid`
        while m.core.pc != prog.symbols["mid"]:
            m.sim.step()
        snap = take_snapshot(m)
        m.run()
        first = m.reg("s0")
        restore_snapshot(m, snap)
        m.run()
        assert m.reg("s0") == first == 6

    def test_tlb_state_captured(self):
        from repro.mmu.types import TlbEntry

        m = build_trap_machine(with_caches=False)
        m.core.tlb.insert(TlbEntry(vpn=5, ppn=9, perms=1))
        m.core.tlb.current_asid = 3
        snap = take_snapshot(m)
        m.core.tlb.flush()
        m.core.tlb.current_asid = 0
        restore_snapshot(m, snap)
        assert len(m.core.tlb) == 1
        assert m.core.tlb.current_asid == 3

    def test_delivery_routing_captured(self):
        """The delivery table (mivec routing + mintc flag) is guest-
        mutable state and must survive snapshot/restore (regression:
        snapshots previously dropped it, so a restored checkpoint kept
        whatever routing the *later* execution had installed)."""
        r = MRoutine(name="r", entry=0, source="mexit\n")
        m = build_metal_machine([r], with_caches=False)
        delivery = m.core.metal.delivery
        m.route_cause(8, "r")                  # ECALL -> r
        delivery.interrupts_enabled = True
        snap = take_snapshot(m)

        delivery.unroute(8)
        delivery.route(16, 0)                  # different routing entirely
        delivery.interrupts_enabled = False

        restore_snapshot(m, snap)
        assert delivery.handler_for(8) == m.metal_image.entry_of("r")
        assert delivery.handler_for(16) is None
        assert delivery.interrupts_enabled

    def test_intercept_rules_captured_and_watchers_fire(self):
        """Intercept rules are part of the snapshot, and a restore
        replaces the live rule set across an empty<->non-empty edge in
        either direction."""
        r = MRoutine(name="r", entry=0, source="mexit\n")
        m = build_metal_machine([r], with_caches=False)
        intercept = m.core.metal.intercept

        intercept.enable(0x503, 1)             # intercept lw
        snap = take_snapshot(m)
        rules_at_snap = intercept.snapshot_rules()

        intercept.clear()                      # guest dropped the rule
        assert intercept.empty

        restore_snapshot(m, snap)
        assert not intercept.empty
        assert intercept.snapshot_rules() == rules_at_snap

        # And the reverse: restoring an *empty* rule set over live rules.
        empty_snap = take_snapshot(m)
        intercept.clear()
        restore_snapshot(m, empty_snap)        # non-empty again
        intercept.clear()
        snap2 = take_snapshot(m)               # captured empty
        intercept.enable(0x503, 1)
        restore_snapshot(m, snap2)
        assert intercept.empty

    def test_restored_intercepts_are_architecturally_live(self):
        """End-to-end: a restored machine re-executes with the restored
        rule set, not the one active at restore time."""
        setup = MRoutine(name="setup", entry=0, source="""
            micept a0, a1
            mexit
        """)
        emul = MRoutine(name="emul", entry=1, source="""
            wmr  m13, t0
            li   t0, 0x77
            wmr  m27, t0          # emulated load result
            rmr  t0, m29          # intercepted instruction word
            srli t0, t0, 7
            andi t0, t0, 31
            wmr  m26, t0          # its rd
            rmr  t0, m13
            mexitm
        """, shared_mregs=(13,))
        m = build_metal_machine([setup, emul], with_caches=False)
        prog = m.assemble("""
_start:
    li   a0, 0x503
    li   a1, MR_EMUL
    menter MR_SETUP
mid:
    li   s2, 0x3000
    lw   a2, 0(s2)
    halt
""", base=0x1000)
        m.load(prog)
        m.write_word(0x3000, 0x1234)
        m.core.pc = 0x1000
        m.run(stop_pc=prog.symbols["mid"], max_instructions=10_000,
              raise_on_limit=False)
        snap = take_snapshot(m)                # rule installed, lw pending

        m.run(max_instructions=10_000, raise_on_limit=False)
        assert m.reg("a2") == 0x77             # intercepted + emulated

        restore_snapshot(m, snap)
        m.core.metal.intercept.clear()         # desync: rules gone...
        restore_snapshot(m, snap)              # ...and restored again
        m.run(max_instructions=10_000, raise_on_limit=False)
        assert m.reg("a2") == 0x77, (
            "restored intercept rule must intercept the reloaded lw")


class TestCli:
    def _run(self, tmp_path, source, *flags):
        path = tmp_path / "prog.s"
        path.write_text(source)
        return subprocess.run(
            [sys.executable, "-m", "repro", str(path), *flags],
            capture_output=True, text=True, timeout=120,
        )

    def test_runs_program(self, tmp_path):
        result = self._run(tmp_path, PROGRAM)
        assert result.returncode == 0
        assert "[halt]" in result.stdout

    def test_regs_dump(self, tmp_path):
        result = self._run(tmp_path, PROGRAM, "--regs")
        assert "a2 = 00000007" in result.stdout

    def test_trace_flag(self, tmp_path):
        result = self._run(tmp_path, PROGRAM, "--trace")
        assert "add a2, a0, a1" in result.stdout

    def test_trap_machine_flag(self, tmp_path):
        result = self._run(tmp_path, PROGRAM, "--machine", "trap",
                           "--engine", "pipeline", "--regs")
        assert result.returncode == 0

    def test_console_output_printed(self, tmp_path):
        result = self._run(tmp_path, """
_start:
    li   t0, CONSOLE_TX
    li   t1, 'Z'
    sw   t1, 0(t0)
    halt
""")
        assert "Z" in result.stdout

    def test_missing_file(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", str(tmp_path / "nope.s")],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2

    def test_assembly_error_reported(self, tmp_path):
        result = self._run(tmp_path, "_start:\n    frobnicate\n")
        assert result.returncode == 1
        assert "error" in result.stderr
