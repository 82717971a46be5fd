"""Whole-machine snapshot / restore.

Captures the architectural state a context-switching host would need:
GPRs, PC, modes, CSRs, TLB, MRegs, MRAM (code and data), RAM, and
the guest-mutable Metal control state — the delivery table's routed
causes (``mivec``) and the interception rule set (``micept``), which a
guest may have changed between snapshot and restore.  Device-internal
state (queues, countdowns) is deliberately *not* captured — snapshots
model checkpointing the processor, not the world.

RAM is captured sparsely: ``MachineSnapshot.ram`` is the RAM size and
:meth:`PhysicalMemory.pages`, the 4 KiB pages that hold a non-zero
byte, so a booted machine's capsule is kilobytes, not the whole RAM.
The capsule is self-contained: a restore makes RAM equal it whatever
the target machine held (:meth:`PhysicalMemory.load_pages`), writing
only the pages whose bytes differ, through the RAM write hook.  The
translation cache therefore evicts only the blocks on rewritten pages,
and a warm start or a resume keeps the code compiled from every other
page.

Used by tests for A/B experiments (run, snapshot, perturb, restore), the
MFI fault-injection recovery layer (periodic checkpoints + retry, see
docs/FAULTS.md) and as a building block for nested-Metal context
switching demos.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field


@dataclass
class MachineSnapshot:
    """Opaque state capsule; create via :func:`take_snapshot`."""

    regs: list
    pc: int
    user_mode: bool
    halted: bool
    waiting: bool
    instret: int
    csrs: dict
    tlb_entries: list
    tlb_state: tuple            # (enabled, asid, pkr, replace_ptr)
    ram: tuple                  # (size, PhysicalMemory.pages())
    metal: dict = field(default_factory=dict)


def take_snapshot(machine) -> MachineSnapshot:
    """Capture *machine*'s architectural state."""
    core = machine.core
    csrs = {
        name: getattr(core.csrs, name)
        for name in ("mstatus", "mtvec", "mscratch", "mepc", "mcause", "mtval")
    }
    snap = MachineSnapshot(
        regs=list(core.regs),
        pc=core.pc,
        user_mode=core.user_mode,
        halted=core.halted,
        waiting=core.waiting,
        instret=core.instret,
        csrs=csrs,
        tlb_entries=copy.deepcopy(core.tlb.entries),
        tlb_state=(core.tlb.enabled, core.tlb.current_asid, core.tlb.pkr,
                   core.tlb._replace_ptr),
        ram=(machine.ram.size, machine.ram.pages()),
    )
    if core.metal is not None:
        snap.metal = {
            "in_metal": core.metal.in_metal,
            "mregs": core.metal.mregs.snapshot(),
            "mram_data": bytes(core.metal.mram.data),
            "mram_code": bytes(core.metal.mram.code),
            "paging_enabled": core.metal.paging_enabled,
            "user_translation": core.metal.user_translation,
            "interrupts_enabled": core.metal.delivery.interrupts_enabled,
            "delivery": core.metal.delivery.snapshot_state(),
        }
        # The layered (nested-Metal) intercept view has per-layer tables
        # and no single rule set; base machines capture theirs.
        capture = getattr(core.metal.intercept, "snapshot_rules", None)
        if capture is not None:
            snap.metal["intercept_rules"] = capture()
    return snap


def restore_snapshot(machine, snap: MachineSnapshot) -> None:
    """Restore *machine* to *snap* (taken from the same configuration)."""
    size, pages = snap.ram
    if size != machine.ram.size:
        raise ValueError(f"capsule holds {size} bytes of RAM, "
                         f"the machine has {machine.ram.size}")
    core = machine.core
    core.regs = list(snap.regs)
    core.pc = snap.pc
    core.user_mode = snap.user_mode
    core.halted = snap.halted
    core.waiting = snap.waiting
    core.instret = snap.instret
    for name, value in snap.csrs.items():
        setattr(core.csrs, name, value)
    core.tlb.entries = copy.deepcopy(snap.tlb_entries)
    (core.tlb.enabled, core.tlb.current_asid, core.tlb.pkr,
     core.tlb._replace_ptr) = snap.tlb_state
    # Each rewritten page goes through the write hook, which evicts the
    # blocks compiled from it; blocks on unchanged pages stay valid.
    machine.ram.load_pages(pages)
    if core.metal is not None and snap.metal:
        core.metal.in_metal = snap.metal["in_metal"]
        core.metal.mregs.restore(snap.metal["mregs"])
        core.metal.mram.data[:] = snap.metal["mram_data"]
        mram_code = snap.metal.get("mram_code")
        if mram_code is not None and bytes(core.metal.mram.code) != mram_code:
            # Replacing MRAM code must bump code_version so the tcache
            # drops predecoded blocks of the pre-restore image (the MFI
            # recovery layer depends on this to undo code corruption).
            core.metal.mram.code[:] = mram_code
            core.metal.mram.code_version += 1
        core.metal.paging_enabled = snap.metal["paging_enabled"]
        core.metal.user_translation = snap.metal["user_translation"]
        core.metal.delivery.interrupts_enabled = (
            snap.metal["interrupts_enabled"]
        )
        delivery = snap.metal.get("delivery")
        if delivery is not None:
            core.metal.delivery.restore_state(delivery)
        # Mem blocks are compiled under one rule set: the next
        # normal-mode dispatch selects the restored set by its
        # signature, which restore_rules recomputes, and flushes the
        # mem blocks if it differs.
        rules = snap.metal.get("intercept_rules")
        if (rules is not None
                and hasattr(core.metal.intercept, "restore_rules")):
            core.metal.intercept.restore_rules(rules)
