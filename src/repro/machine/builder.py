"""Canned machine configurations.

Three machines, matching the comparison axes in the paper:

* **Metal machine** — the paper's processor: MetalUnit (MRAM + MReg +
  interception + delegation), software-managed TLB, devices, caches.
* **Trap machine** — conventional baseline: CSRs, ``ecall``/``mret``,
  trap vector in main memory, same TLB refilled by a trap handler.
* **PALcode-style machine** — a Metal machine whose "MRAM" behaves like
  main memory and whose transitions pay a microsequence instead of the
  decode-stage replacement; calibrated so a no-op routine call costs about
  18 cycles, the figure the paper quotes for Alpha PALcode (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.core import CpuCore
from repro.cpu.csr import CSR_SYMBOLS
from repro.cpu.exceptions import CAUSE_SYMBOLS
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.pipeline import PipelineSimulator
from repro.cpu.timing import TimingModel
from repro.devices import BlockDevice, Console, InterruptController, Nic, Timer
from repro.devices import plic as plic_mod
from repro.machine.machine import Machine
from repro.mem.bus import MemoryBus
from repro.mem.cache import Cache
from repro.mcode.pagetable import PTE_SYMBOLS
from repro.mcode.runtime import PRIV_SYMBOLS
from repro.metal.loader import load_mroutines
from repro.metal.mram import Mram
from repro.metal.unit import MetalUnit
from repro.mmu.tlb import Tlb

#: Canonical physical layout.
RAM_BASE = 0x0000_0000
DEFAULT_RAM_BYTES = 4 * 1024 * 1024
CONSOLE_BASE = 0xF000_0000
TIMER_BASE = 0xF000_1000
NIC_BASE = 0xF000_2000
BLOCK_BASE = 0xF000_3000

#: Device-register symbols injected into guest assembly environments.
DEVICE_SYMBOLS = {
    "CONSOLE_BASE": CONSOLE_BASE,
    "CONSOLE_TX": CONSOLE_BASE + 0x00,
    "CONSOLE_RX_DATA": CONSOLE_BASE + 0x04,
    "CONSOLE_RX_STATUS": CONSOLE_BASE + 0x08,
    "TIMER_BASE": TIMER_BASE,
    "TIMER_COUNT": TIMER_BASE + 0x00,
    "TIMER_COMPARE": TIMER_BASE + 0x04,
    "TIMER_CTRL": TIMER_BASE + 0x08,
    "NIC_BASE": NIC_BASE,
    "NIC_RX_STATUS": NIC_BASE + 0x00,
    "NIC_RX_LEN": NIC_BASE + 0x04,
    "NIC_DMA_ADDR": NIC_BASE + 0x08,
    "NIC_RX_POP": NIC_BASE + 0x0C,
    "NIC_IRQ_CTRL": NIC_BASE + 0x10,
    "NIC_RX_TOTAL": NIC_BASE + 0x14,
    "NIC_RX_HEAD_TS": NIC_BASE + 0x18,
    "NIC_RX_FAULT": NIC_BASE + 0x1C,
    "BLK_SECTOR": BLOCK_BASE + 0x00,
    "BLK_DMA_ADDR": BLOCK_BASE + 0x04,
    "BLK_CMD": BLOCK_BASE + 0x08,
    "BLK_STATUS": BLOCK_BASE + 0x0C,
    "BLK_IRQ_CTRL": BLOCK_BASE + 0x10,
    "BLK_COMPLETED": BLOCK_BASE + 0x14,
    "IRQ_LINE_TIMER": plic_mod.LINE_TIMER,
    "IRQ_LINE_NIC": plic_mod.LINE_NIC,
    "IRQ_LINE_BLOCK": plic_mod.LINE_BLOCK,
    "IRQ_LINE_CONSOLE": plic_mod.LINE_CONSOLE,
}


def assembler_symbols(extra=()) -> dict:
    """The symbol environment guest code and mroutines assemble against:
    cause codes, CSR numbers and fields, device registers, PTE bits and
    privilege levels, then *extra* (a config's ``extra_symbols``).  Boot,
    :meth:`~repro.machine.machine.Machine.reload_mroutines`, the serving
    gate and ``repro lint`` all assemble with it."""
    env = {}
    for table in (CAUSE_SYMBOLS, CSR_SYMBOLS, DEVICE_SYMBOLS, PTE_SYMBOLS,
                  PRIV_SYMBOLS):
        env.update(table)
    env.update(extra)
    return env


@dataclass
class MachineConfig:
    """Knobs shared by all machine builders."""

    ram_bytes: int = DEFAULT_RAM_BYTES
    engine: str = "functional"           # or "pipeline"
    timing: TimingModel = None
    with_caches: bool = True
    icache_kib: int = 16
    dcache_kib: int = 16
    tlb_entries: int = 32
    #: Predecoded translation cache (host-side fast path; see
    #: repro.cpu.tcache).  Architecture-invisible — guest results are
    #: bit-identical either way.
    tcache: bool = True
    extra_symbols: dict = field(default_factory=dict)


def _base_machine(config: MachineConfig, metal_unit, name: str) -> Machine:
    bus = MemoryBus()
    ram = bus.attach_ram(RAM_BASE, config.ram_bytes)
    console = Console(CONSOLE_BASE)
    timer = Timer(TIMER_BASE)
    nic = Nic(NIC_BASE)
    blockdev = BlockDevice(BLOCK_BASE)
    for device in (console, timer, nic, blockdev):
        bus.attach_device(device)
    nic.bus = bus
    blockdev.bus = bus

    irq = InterruptController()
    irq.wire(plic_mod.LINE_TIMER, timer.irq_pending)
    irq.wire(plic_mod.LINE_NIC, nic.irq_pending)
    irq.wire(plic_mod.LINE_BLOCK, blockdev.irq_pending)
    irq.wire(plic_mod.LINE_CONSOLE, console.irq_pending)
    bus.irq = irq

    timing = config.timing or TimingModel()
    icache = dcache = None
    if config.with_caches:
        icache = Cache(size=config.icache_kib * 1024, name="icache",
                       miss_latency=timing.mem_latency)
        dcache = Cache(size=config.dcache_kib * 1024, name="dcache",
                       miss_latency=timing.mem_latency)

    core = CpuCore(
        bus=bus, tlb=Tlb(config.tlb_entries), metal=metal_unit,
        icache=icache, dcache=dcache, irq=irq, timing=timing,
    )
    if metal_unit is not None:
        # Deferred-interrupt introspection (DESIGN.md §5): the delivery
        # table can enumerate pending-but-undeliverable routed causes.
        metal_unit.delivery.bind(irq, metal_unit)
    if config.engine == "pipeline":
        sim = PipelineSimulator(core, tcache=config.tcache)
    elif config.engine == "functional":
        sim = FunctionalSimulator(core, tcache=config.tcache)
    else:
        raise ValueError(f"unknown engine {config.engine!r}")

    return Machine(
        core=core, simulator=sim, bus=bus, ram=ram,
        symbols=assembler_symbols(config.extra_symbols),
        console=console, timer=timer, nic=nic, blockdev=blockdev,
        irq=irq, name=name, extra_symbols=config.extra_symbols,
    )


def build_metal_machine(routines=(), config: MachineConfig = None,
                        mram: Mram = None, **config_kwargs) -> Machine:
    """Build the paper's Metal machine with *routines* loaded at boot."""
    config = config or MachineConfig(**config_kwargs)
    # mroutines may name causes, device registers and each other.
    symbols = assembler_symbols(config.extra_symbols)
    image = load_mroutines(routines, mram=mram, extra_symbols=symbols)
    unit = MetalUnit(image)
    machine = _base_machine(config, unit, name="metal")
    machine.metal_image = image
    # Expose entry numbers and data offsets to guest assembly.
    machine.symbols.update(image.symbols)
    return machine


def build_nested_metal_machine(routines=(), layer_names=("vmm", "os", "app"),
                               config: MachineConfig = None,
                               **config_kwargs) -> Machine:
    """Metal machine with the layered (nested) Metal unit of §3.5."""
    from repro.metal.nested import NestedMetalUnit

    config = config or MachineConfig(**config_kwargs)
    symbols = assembler_symbols(config.extra_symbols)
    image = load_mroutines(routines, extra_symbols=symbols)
    unit = NestedMetalUnit(image, layer_names=layer_names)
    machine = _base_machine(config, unit, name="nested-metal")
    machine.metal_image = image
    machine.symbols.update(image.symbols)
    return machine


def build_trap_machine(config: MachineConfig = None, **config_kwargs) -> Machine:
    """Build the conventional trap-architecture baseline."""
    config = config or MachineConfig(**config_kwargs)
    return _base_machine(config, None, name="trap")


def palcode_timing(base: TimingModel = None) -> TimingModel:
    """Timing for the PALcode-style machine.

    PALcode lives in main memory and transitions run a microsequence
    instead of the decode-stage replacement.  With ``mram_fetch = 3``
    (memory-resident routine code, partially cached) and a 7-cycle
    transition microsequence each way, a warm no-op call (``menter`` hit,
    ``mexit``) costs (1 + 7) + (3 + 7) = 18 cycles — the Alpha figure
    quoted in §5 of the paper ("A no-op PALcode call takes approximately
    18 cycles").
    """
    base = base or TimingModel()
    return base.with_overrides(
        decode_replacement=False,
        transition_redirect=7,
        mram_fetch=3,
    )


def build_palcode_machine(routines=(), config: MachineConfig = None,
                          **config_kwargs) -> Machine:
    """Metal-shaped machine with PALcode-style costs (the §5 comparison)."""
    config = config or MachineConfig(**config_kwargs)
    config.timing = palcode_timing(config.timing)
    machine = build_metal_machine(routines, config=config)
    machine.name = "palcode"
    return machine
