"""Boot-time mroutine loader.

Paper §2: "At boot time, Metal loads a collection of mcode subroutines
called mroutines, which extend the architecture's instruction set.  Metal
assigns each mroutine with a unique entry number, which serves as entry
points into Metal mode."

The loader:

1. checks global constraints (≤64 routines, unique names and entries,
   persistent-MReg ownership, m28–m31 reserved for hardware);
2. allocates each routine's MRAM data segment slice;
3. assembles each routine against a shared symbol environment
   (``MR_<NAME>`` = entry number, ``<NAME>_DATA`` = data offset — names
   upper-cased);
4. statically verifies each routine (:mod:`repro.metal.verifier`);
5. packs the code into MRAM and initialises data;
6. returns a :class:`MetalImage` describing the result.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.asm import assemble
from repro.errors import AsmError, MroutineLoadError
from repro.isa.metal_ops import MAX_MROUTINES
from repro.isa.registers import MREG_ICEPT_RS2
from repro.metal.mram import Mram
from repro.metal.verifier import verify_or_raise


@dataclass
class MetalImage:
    """Result of loading a set of mroutines into an MRAM."""

    mram: Mram
    routines: dict = field(default_factory=dict)      # name -> MRoutine
    by_entry: dict = field(default_factory=dict)      # entry -> MRoutine
    symbols: dict = field(default_factory=dict)       # shared symbol env
    code_used_bytes: int = 0
    data_used_bytes: int = 0
    #: name -> AnalysisResult from load-time verification (empty when the
    #: image was built with ``verify=False``).
    analysis: dict = field(default_factory=dict, repr=False)

    def entry_offset(self, entry: int) -> int:
        """MRAM byte offset of mroutine *entry* (menter target)."""
        try:
            return self.by_entry[entry].code_offset
        except KeyError:
            raise MroutineLoadError(f"no mroutine with entry {entry}") from None

    def entry_of(self, name: str) -> int:
        """Entry number of the routine called *name*."""
        try:
            return self.routines[name].entry
        except KeyError:
            raise MroutineLoadError(f"no mroutine named {name!r}") from None

    def data_offset_of(self, name: str) -> int:
        """Byte offset of *name*'s data allocation in the MRAM data segment."""
        return self.routines[name].data_offset

    def routine_at(self, code_offset: int):
        """The routine whose code contains byte *code_offset* (or None)."""
        for routine in self.routines.values():
            end = routine.code_offset + 4 * len(routine.code_words)
            if routine.code_offset <= code_offset < end:
                return routine
        return None


def load_mroutines(routines, mram: Optional[Mram] = None,
                   extra_symbols: Optional[dict] = None,
                   verify: bool = True) -> MetalImage:
    """Assemble, verify and pack *routines* into *mram*.

    Raises :class:`MroutineLoadError` (or a verifier subclass) on any
    violation — nothing is partially loaded on failure.
    """
    mram = mram or Mram()
    routines = list(routines)
    if len(routines) > MAX_MROUTINES:
        raise MroutineLoadError(
            f"{len(routines)} mroutines exceed the {MAX_MROUTINES}-entry table"
        )

    _check_global_constraints(routines)

    # Data allocation: first-fit sequential, word aligned.
    data_ptr = 0
    for routine in routines:
        routine.data_offset = data_ptr
        data_ptr += 4 * routine.data_words
        if data_ptr > mram.data_bytes:
            raise MroutineLoadError(
                f"{routine.name}: MRAM data segment exhausted "
                f"({data_ptr} > {mram.data_bytes} bytes)"
            )

    # Shared symbol environment.
    symbols = dict(extra_symbols or {})
    for routine in routines:
        symbols[f"MR_{routine.name.upper()}"] = routine.entry
        symbols[f"{routine.name.upper()}_DATA"] = routine.data_offset

    # Assemble + place + verify.
    code_ptr = 0
    by_name = {}
    by_entry = {}
    for routine in routines:
        try:
            program = assemble(
                routine.source, base=code_ptr, symbols=symbols,
                source_name=f"mroutine:{routine.name}",
            )
        except AsmError as exc:
            raise MroutineLoadError(f"{routine.name}: {exc}") from exc
        words = program.words()
        routine.code_offset = code_ptr
        routine.code_words = words
        code_ptr += 4 * len(words)
        if code_ptr > mram.code_bytes:
            raise MroutineLoadError(
                f"{routine.name}: MRAM code segment exhausted "
                f"({code_ptr} > {mram.code_bytes} bytes)"
            )
        by_name[routine.name] = routine
        by_entry[routine.entry] = routine

    analysis = {}
    if verify:
        for routine in routines:
            ranges = [_data_range(routine)]
            for other_name in routine.shared_data:
                other = by_name.get(other_name)
                if other is None:
                    raise MroutineLoadError(
                        f"{routine.name}: shared_data names unknown routine "
                        f"{other_name!r}"
                    )
                ranges.append(_data_range(other))
            ranges = [r for r in ranges if r[0] < r[1]]
            report = verify_or_raise(routine,
                                     allowed_data_ranges=ranges or [(0, 0)])
            analysis[routine.name] = report.result
            routine.facts = report.facts

    # Commit: write code and initial data.
    for routine in routines:
        mram.write_code(routine.code_offset, routine.code_words)
        if routine.data_init:
            payload = struct.pack(
                f"<{len(routine.data_init)}I",
                *[v & 0xFFFFFFFF for v in routine.data_init],
            )
            mram.write_data_bytes(routine.data_offset, payload)

    return MetalImage(
        mram=mram,
        routines=by_name,
        by_entry=by_entry,
        symbols=symbols,
        code_used_bytes=code_ptr,
        data_used_bytes=data_ptr,
        analysis=analysis,
    )


def append_mroutines(image: MetalImage, routines, verify: bool = True) -> list:
    """Assemble, verify and pack *routines* into an already-loaded *image*.

    The post-boot twin of :func:`load_mroutines` (MSYNTH installs its
    generated routines through here).  Constraints are checked over the
    union of existing and new routines, data/code are allocated past the
    image's high-water marks, and the new code is assembled against the
    image's existing symbol environment (so appended routines may call
    ``menter MR_<EXISTING>`` or address another routine's ``_DATA``).

    All checks, assembly and MAS verification happen before anything is
    committed: on failure nothing is partially loaded and the image is
    unchanged.  The commit goes through :meth:`Mram.write_code`, which
    bumps ``code_version`` — the translation cache's lazy mram-namespace
    check observes the bump and drops every mram translation.  The image
    is updated in place (routines, entry table, symbols, ``analysis``,
    high-water marks): the profiler's loop attribution reads
    ``analysis``, and the next append allocates past
    ``code_used_bytes``.

    Returns the appended routines (with ``code_offset``/``facts`` filled
    in).
    """
    mram = image.mram
    routines = list(routines)
    existing = list(image.routines.values())
    if len(existing) + len(routines) > MAX_MROUTINES:
        raise MroutineLoadError(
            f"{len(existing) + len(routines)} mroutines exceed the "
            f"{MAX_MROUTINES}-entry table"
        )
    _check_global_constraints(existing + routines)

    # Allocate past the image's high-water marks.
    data_ptr = image.data_used_bytes
    for routine in routines:
        routine.data_offset = data_ptr
        data_ptr += 4 * routine.data_words
        if data_ptr > mram.data_bytes:
            raise MroutineLoadError(
                f"{routine.name}: MRAM data segment exhausted "
                f"({data_ptr} > {mram.data_bytes} bytes)"
            )

    symbols = dict(image.symbols)
    for routine in routines:
        symbols[f"MR_{routine.name.upper()}"] = routine.entry
        symbols[f"{routine.name.upper()}_DATA"] = routine.data_offset

    code_ptr = image.code_used_bytes
    by_name = dict(image.routines)
    for routine in routines:
        try:
            program = assemble(
                routine.source, base=code_ptr, symbols=symbols,
                source_name=f"mroutine:{routine.name}",
            )
        except AsmError as exc:
            raise MroutineLoadError(f"{routine.name}: {exc}") from exc
        words = program.words()
        routine.code_offset = code_ptr
        routine.code_words = words
        code_ptr += 4 * len(words)
        if code_ptr > mram.code_bytes:
            raise MroutineLoadError(
                f"{routine.name}: MRAM code segment exhausted "
                f"({code_ptr} > {mram.code_bytes} bytes)"
            )
        by_name[routine.name] = routine

    analysis = {}
    if verify:
        for routine in routines:
            ranges = [_data_range(routine)]
            for other_name in routine.shared_data:
                other = by_name.get(other_name)
                if other is None:
                    raise MroutineLoadError(
                        f"{routine.name}: shared_data names unknown routine "
                        f"{other_name!r}"
                    )
                ranges.append(_data_range(other))
            ranges = [r for r in ranges if r[0] < r[1]]
            report = verify_or_raise(routine,
                                     allowed_data_ranges=ranges or [(0, 0)])
            analysis[routine.name] = report.result
            routine.facts = report.facts

    # Commit: mutate the image in place, then write MRAM.  write_code
    # bumps mram.code_version, which is what downstream caches key on —
    # it must happen *after* the image reflects the new routines so the
    # first dispatch after the bump sees the complete image.
    for routine in routines:
        image.routines[routine.name] = routine
        image.by_entry[routine.entry] = routine
    image.symbols.update(symbols)
    image.analysis.update(analysis)
    image.code_used_bytes = code_ptr
    image.data_used_bytes = data_ptr
    for routine in routines:
        mram.write_code(routine.code_offset, routine.code_words)
        if routine.data_init:
            payload = struct.pack(
                f"<{len(routine.data_init)}I",
                *[v & 0xFFFFFFFF for v in routine.data_init],
            )
            mram.write_data_bytes(routine.data_offset, payload)
    return routines


def _data_range(routine):
    return (routine.data_offset, routine.data_offset + 4 * routine.data_words)


def _check_global_constraints(routines) -> None:
    names = set()
    entries = set()
    owners = {}  # mreg -> routine name
    for routine in routines:
        if routine.name in names:
            raise MroutineLoadError(f"duplicate mroutine name {routine.name!r}")
        names.add(routine.name)
        if routine.entry in entries:
            raise MroutineLoadError(
                f"{routine.name}: entry {routine.entry} already in use"
            )
        entries.add(routine.entry)
        for mreg in routine.mregs:
            if mreg >= MREG_ICEPT_RS2:
                raise MroutineLoadError(
                    f"{routine.name}: m{mreg} is hardware-reserved (m24-m31)"
                )
            if mreg in owners:
                raise MroutineLoadError(
                    f"{routine.name}: m{mreg} already owned by {owners[mreg]!r}; "
                    "use shared_mregs for deliberate sharing"
                )
            owners[mreg] = routine.name
    # Shared registers must not collide with exclusively-owned ones.
    for routine in routines:
        for mreg in routine.shared_mregs:
            if mreg >= MREG_ICEPT_RS2:
                raise MroutineLoadError(
                    f"{routine.name}: m{mreg} is hardware-reserved (m24-m31)"
                )
            owner = owners.get(mreg)
            if owner is not None and owner != routine.name:
                raise MroutineLoadError(
                    f"{routine.name}: shared m{mreg} is exclusively owned by "
                    f"{owner!r}"
                )
