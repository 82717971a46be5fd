"""The Machine: one simulated computer."""

from __future__ import annotations

from typing import Optional

from repro.asm import assemble
from repro.cpu.core import CpuCore
from repro.isa.registers import reg_num


class Machine:
    """A composed machine: core, engine, bus, devices, symbol environment.

    Construct via :mod:`repro.machine.builder`; this class provides the
    conveniences examples/tests/benchmarks use: assembling guest programs
    against the machine's symbol environment, loading images, reading and
    writing registers by ABI name, and running.
    """

    def __init__(self, core: CpuCore, simulator, bus, ram, symbols=None,
                 console=None, timer=None, nic=None, blockdev=None,
                 irq=None, metal_image=None, name: str = "machine",
                 extra_symbols=None):
        self.core = core
        self.sim = simulator
        self.bus = bus
        self.ram = ram
        self.symbols = dict(symbols or {})
        #: The config's ``extra_symbols``: mroutines reloaded after boot
        #: assemble against them, as boot's did.
        self.extra_symbols = dict(extra_symbols or {})
        self.console = console
        self.timer = timer
        self.nic = nic
        self.blockdev = blockdev
        self.irq = irq
        self.metal_image = metal_image
        self.name = name

    # -- program loading ------------------------------------------------
    def assemble(self, source: str, base: int = 0x1000, extra_symbols=None):
        """Assemble *source* against this machine's symbol environment."""
        symbols = dict(self.symbols)
        if extra_symbols:
            symbols.update(extra_symbols)
        return assemble(source, base=base, symbols=symbols)

    def load(self, program) -> None:
        """Load an assembled :class:`~repro.asm.program.Program`."""
        program.load_into(self.bus)

    def load_and_run(self, source: str, base: int = 0x1000,
                     max_instructions: int = 5_000_000,
                     extra_symbols=None):
        """Assemble, load, jump to *base* and run until halt."""
        program = self.assemble(source, base=base, extra_symbols=extra_symbols)
        self.load(program)
        self.core.pc = program.symbols.get("_start", base)
        return self.sim.run(max_instructions=max_instructions)

    def run(self, **kwargs):
        """Run the engine (see :meth:`FunctionalSimulator.run`)."""
        return self.sim.run(**kwargs)

    # -- boot-firmware configuration (Metal machines) --------------------
    def route_cause(self, cause: int, routine_name: str) -> None:
        """Boot-time ``mivec``: route *cause* to the named mroutine.

        Equivalent to what a boot mroutine would do with ``mivec``; exposed
        host-side because delivery routing is part of machine bring-up
        (paper §2: "At boot time, Metal loads ... mroutines").
        """
        entry = self.metal_image.entry_of(routine_name)
        self.core.metal.delivery.route(int(cause), entry)

    def route_page_faults(self, routine_name: str = "pagefault") -> None:
        """Route the page-fault causes (and key faults, which the walker
        forwards straight to the OS) to the walker."""
        from repro.cpu.exceptions import Cause

        for cause in (Cause.PAGE_FAULT_FETCH, Cause.PAGE_FAULT_LOAD,
                      Cause.PAGE_FAULT_STORE, Cause.KEY_FAULT):
            self.route_cause(cause, routine_name)

    # -- register access by name ------------------------------------------
    def reg(self, name: str) -> int:
        """Read a GPR by ABI name."""
        return self.core.regs[reg_num(name)]

    def set_reg(self, name: str, value: int) -> None:
        self.core.rset(reg_num(name), value)

    def mreg(self, index: int) -> int:
        """Read Metal register *index* (Metal machines only)."""
        return self.core.metal.mregs.read(index)

    # -- memory helpers ------------------------------------------------------
    def read_word(self, addr: int) -> int:
        return self.bus.read_u32(addr)

    def write_word(self, addr: int, value: int) -> None:
        self.bus.write_u32(addr, value)

    def write_bytes(self, addr: int, payload: bytes) -> None:
        self.bus.write_bytes(addr, payload)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self.bus.read_bytes(addr, length)

    # -- snapshot / preemptive execution (MSERVE building blocks) ---------
    def take_snapshot(self):
        """Capture this machine's architectural state (see
        :mod:`repro.machine.snapshot`).  The capsule is picklable, so it
        can cross a process boundary — the serving fleet migrates
        preempted jobs between shards by shipping it through a queue."""
        from repro.machine.snapshot import take_snapshot

        return take_snapshot(self)

    def restore(self, snap) -> None:
        """Restore a :meth:`take_snapshot` capsule taken from a machine
        of the same configuration (same routines, RAM size, engine)."""
        from repro.machine.snapshot import restore_snapshot

        restore_snapshot(self, snap)

    def run_quantum(self, quantum: int):
        """Run **at most** *quantum* instructions; never raises on the
        budget.  The engines' stepping is exact-budget: unless the guest
        halts first, exactly *quantum* instructions retire, and the
        interrupted state is an ordinary architectural state — so
        ``run_quantum`` + :meth:`take_snapshot` + :meth:`restore` (on
        this or any same-configured machine) + ``run_quantum`` retires
        the identical instruction stream as one uninterrupted run.
        This is the preemption primitive the serving shards use to keep
        long jobs from starving short ones."""
        return self.sim.run(max_instructions=quantum, raise_on_limit=False)

    # -- lifecycle ---------------------------------------------------------
    def reset(self, pc: int = 0) -> None:
        """Architectural reset: registers, PC, modes, TLB and Metal state.

        Memory and MRAM contents persist (as across a real reset); devices
        keep their host-side configuration.  The cycle counter is the
        engine's and keeps running.
        """
        self.core.reset(pc)
        self.core.tlb.flush()
        self.core.tlb.enabled = False
        self.core.tlb.current_asid = 0
        self.core.tlb.pkr = 0

    # -- host-performance introspection ----------------------------------
    @property
    def perf(self):
        """Host-side performance counters (:class:`repro.cpu.stats.PerfCounters`)."""
        return self.sim.perf

    def set_tcache(self, enabled: bool) -> None:
        """Toggle the translation-cache fast path (guest-invisible)."""
        self.sim.tcache_enabled = enabled

    # -- profiling (MPROF) -------------------------------------------------
    def set_profiling(self, enabled: bool, capacity: Optional[int] = None):
        """Attach (or detach) the MPROF trace event sink (guest-invisible).

        Returns the attached :class:`~repro.profile.sink.TraceEventSink`
        (or ``None`` after detaching).  Re-enabling replaces the sink, so
        each enable starts a fresh recording; *capacity* sizes the
        retired-trace ring buffer.
        """
        if not enabled:
            self.sim.set_profile_sink(None)
            return None
        from repro.profile.sink import DEFAULT_CAPACITY, TraceEventSink

        sink = TraceEventSink(capacity or DEFAULT_CAPACITY)
        self.sim.set_profile_sink(sink)
        return sink

    @property
    def profiler(self):
        """The attached trace event sink, or ``None``."""
        return self.sim.profile_sink

    def metrics(self):
        """A fresh :class:`~repro.profile.registry.MetricsRegistry` over
        this machine (works with or without an attached sink)."""
        from repro.profile.registry import MetricsRegistry

        return MetricsRegistry(self)

    # -- mroutine (re)loading --------------------------------------------
    def reload_mroutines(self, routines) -> None:
        """Replace the loaded mroutine image in place (Metal machines).

        Models a runtime processor-feature upgrade: the MRAM is rewritten
        with a fresh image (invalidating any cached translations of the
        old code), the unit keeps its mode/registers, and delivery or
        interception routes referring to old entry numbers are the
        caller's responsibility to re-establish.
        """
        from repro.machine.builder import assembler_symbols
        from repro.metal.loader import load_mroutines

        unit = self.core.metal
        if unit is None:
            raise ValueError("reload_mroutines on a machine without Metal")
        mram = unit.mram
        mram.clear()
        image = load_mroutines(
            routines, mram=mram,
            extra_symbols=assembler_symbols(self.extra_symbols))
        unit.image = image
        self.metal_image = image
        self.symbols.update(image.symbols)

    def append_mroutines(self, routines) -> list:
        """Append *routines* to the loaded image in place (Metal machines).

        Models MSYNTH installing a synthesized processor feature after
        boot: existing routines keep their entries, code offsets and
        MRAM data, and only the new routines are assembled, MAS-verified
        and packed past the image's high-water marks.  The MRAM write
        bumps ``code_version``, so the translation cache lazily drops
        its mram-namespace translations on the next mram dispatch — no
        explicit flush is needed, and guest-visible state is untouched.

        Returns the appended routines (with facts attached).
        """
        from repro.metal.loader import append_mroutines

        unit = self.core.metal
        if unit is None:
            raise ValueError("append_mroutines on a machine without Metal")
        appended = append_mroutines(self.metal_image, routines)
        self.symbols.update(self.metal_image.symbols)
        return appended

    # -- introspection ---------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.sim.timer.cycles

    @property
    def instret(self) -> int:
        return self.core.instret

    @property
    def output(self) -> str:
        """Console output so far."""
        return self.console.text if self.console is not None else ""

    def inventory(self) -> dict:
        """Structural summary (used by the Figure 1 workflow bench)."""
        info = {
            "name": self.name,
            "engine": type(self.sim).__name__,
            "ram_bytes": self.ram.size,
            "devices": [d.name for d in self.bus.devices],
            "tlb_entries": self.core.tlb.capacity,
        }
        if self.core.metal is not None:
            image = self.metal_image
            info.update({
                "mram_code_bytes": image.mram.code_bytes,
                "mram_data_bytes": image.mram.data_bytes,
                "mram_code_used": image.code_used_bytes,
                "mram_data_used": image.data_used_bytes,
                "mroutines": {
                    r.name: {
                        "entry": r.entry,
                        "words": len(r.code_words),
                        "data_words": r.data_words,
                    }
                    for r in image.routines.values()
                },
                "mreg_count": 32,
            })
        return info
