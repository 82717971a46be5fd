"""The core's direct RAM path against the bus route.

``CpuCore.read_mem``/``write_mem`` serve an aligned access under
identity translation that lies inside the bus's first RAM region
directly: the region's bytes, its write hook and the D-cache.  ``step()``
and MJIT code both call them, so the engine differentials compare that
path only with itself.  These tests compare it with the bus route
(translate, ``bus.read_uN``/``write_uN``, ``_data_latency``) on two
identical cores, access by access: the value, the latency, the D-cache
hit and miss counts and LRU order, the write-hook calls, the RAM bytes
and any trap.
"""

from __future__ import annotations

import pytest

from repro.cpu.core import CpuCore
from repro.cpu.exceptions import Cause, TrapException
from repro.errors import AlignmentError, BusError
from repro.mem import MemoryBus, MmioRegisterBank
from repro.mem.cache import Cache
from repro.mmu.types import AccessType, TlbEntry

RAM_BASE = 0x1000
RAM_SIZE = 0x2000
RAM_END = RAM_BASE + RAM_SIZE
DEVICE = 0x10_0000
#: A virtual page the paged cases map onto the RAM page at RAM_BASE.
VPAGE = 0x40_0000
VALUE = 0x89AB_CDEF


def _core(ram_size=RAM_SIZE, dcache=True):
    """A core on a bus with one RAM region (filled with a pattern), a
    register-bank device and, if *dcache*, a small D-cache; returns the
    core and the list its RAM's write hook appends to."""
    bus = MemoryBus()
    ram = bus.attach_ram(RAM_BASE, ram_size)
    ram.data[:] = bytes((i * 7 + 3) & 0xFF for i in range(ram_size))
    device = MmioRegisterBank(DEVICE, 4)
    device.regs[4] = 0x1234_5678
    bus.attach_device(device)
    hooks = []
    ram.write_hook = lambda addr, length: hooks.append((addr, length))
    cache = (Cache(size=1024, line_size=32, ways=2, name="dcache")
             if dcache else None)
    return CpuCore(bus=bus, dcache=cache), hooks


def _routed(core, va, width, value=None, physical=False):
    """The bus route of ``read_mem`` (*value* None) or ``write_mem``."""
    va &= 0xFFFFFFFF
    load = value is None
    if va % width:
        raise TrapException(Cause.MISALIGNED_LOAD if load
                            else Cause.MISALIGNED_STORE, va)
    pa = va if physical else core.translate(
        va, AccessType.LOAD if load else AccessType.STORE)
    is_device = core.bus.is_device(pa)
    bits = 8 * width
    try:
        if load:
            result = getattr(core.bus, f"read_u{bits}")(pa)
        else:
            getattr(core.bus, f"write_u{bits}")(pa, value)
    except BusError:
        raise TrapException(Cause.BUS_ERROR, va) from None
    latency = core._data_latency(pa, is_device)
    return (result, latency) if load else latency


def _direct(core, va, width, value=None, physical=False):
    if value is None:
        return core.read_mem(va, width, physical=physical)
    return core.write_mem(va, width, value, physical=physical)


def _outcome(access, core, hooks, *args, **kwargs):
    """What one access returns or raises, and the state it leaves."""
    try:
        result = ("ok", access(core, *args, **kwargs))
    except TrapException as trap:
        result = ("trap", trap.cause, trap.info)
    except AlignmentError as exc:  # a device's width error is no trap
        result = ("error", str(exc))
    cache = core.dcache
    return (result,
            None if cache is None else (cache.stats.hits, cache.stats.misses,
                                        [list(s) for s in cache._sets]),
            list(hooks),
            bytes(core.bus.ram0.data),
            dict(core.bus.regions[1][0].regs))


def _map_page(core):
    core.tlb.enabled = True
    core.tlb.insert(TlbEntry(vpn=VPAGE >> 12, ppn=RAM_BASE >> 12))


#: name -> (RAM size, setup, va, physical)
CASES = {
    "aligned": (RAM_SIZE, None, RAM_BASE + 0x140, False),
    "last_in_ram": (RAM_SIZE, None, None, False),
    # An odd-sized region: its last byte is at RAM_END, and a halfword
    # or word there straddles its end.
    "straddles_ram_end": (RAM_SIZE + 1, None, RAM_END, False),
    "past_ram_end": (RAM_SIZE, None, RAM_END, False),
    "device_register": (RAM_SIZE, None, DEVICE + 4, False),
    "misaligned": (RAM_SIZE, None, RAM_BASE + 0x141, False),
    "physical_tlb_on": (RAM_SIZE, _map_page, RAM_BASE + 0x140, True),
    "paged": (RAM_SIZE, _map_page, VPAGE + 0x140, False),
    "paged_unmapped": (RAM_SIZE, _map_page, VPAGE + 0x1140, False),
}


@pytest.mark.parametrize("dcache", (True, False), ids=("dcache", "nocache"))
@pytest.mark.parametrize("op", ("read", "write"))
@pytest.mark.parametrize("width", (1, 2, 4))
@pytest.mark.parametrize("case", sorted(CASES))
def test_direct_path_matches_the_bus_route(case, width, op, dcache):
    """Each access runs twice (a miss, then a hit in the MRU way) after
    a warm-up access to another line of the same set, on the direct
    path and on the bus route: every outcome and state agrees."""
    ram_size, setup, va, physical = CASES[case]
    if va is None:
        va = RAM_BASE + ram_size - width   # the last byte/half/word
    value = None if op == "read" else VALUE
    outcomes = []
    for access in (_routed, _direct):
        core, hooks = _core(ram_size, dcache)
        if setup is not None:
            setup(core)
        # Same set, another tag: the access under test is then not MRU.
        core.read_mem(RAM_BASE + 0x140 + 512, 4, physical=True)
        outcomes.append([_outcome(access, core, hooks, va, width, value,
                                  physical=physical)
                         for _ in range(2)])
    assert outcomes[1] == outcomes[0]


def test_identity_ram_accesses_skip_the_bus_route():
    """The accesses the direct path serves (the last byte, halfword and
    word of RAM, and a physical access with the TLB on) never reach the
    bus's routing or access methods."""
    core, hooks = _core()

    def route(*_args):
        raise AssertionError("took the bus route")
    for name in ("is_device", "read_u8", "read_u16", "read_u32",
                 "write_u8", "write_u16", "write_u32"):
        setattr(core.bus, name, route)
    for width in (1, 2, 4):
        va = RAM_END - width
        core.write_mem(va, width, VALUE)
        assert core.read_mem(va, width)[0] == VALUE & ((1 << 8 * width) - 1)
    _map_page(core)
    assert core.read_mem(RAM_END - 4, 4, physical=True)[0] == VALUE
    assert hooks == [(RAM_END - 1, 1), (RAM_END - 2, 2), (RAM_END - 4, 4)]
    assert core.dcache.stats.misses == 1
