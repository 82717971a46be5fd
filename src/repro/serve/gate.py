"""MSERVE admission control: assemble + MAS-lint user programs.

Inline ``.s`` submissions are untrusted input.  Before one reaches a
shard it must (a) assemble against the exact symbol environment the
shard's machine will assemble it against, (b) fit in guest RAM at its
load base, and (c) pass a guest-flavoured MAS lint built on the same
CFG machinery as the mcode analyzer (:mod:`repro.analysis.cfg`), with
guest semantics swapped in: ``halt`` (illegal in mcode) is the exit
terminator here, ``ecall``/``csr*`` are legal, and ``jalr`` is an
ordinary dynamic jump rather than a declared privilege.

Checks, each reported as a :class:`repro.analysis.passes.Diagnostic`
so rejections render in the familiar ``error[pass]: ... --> word N``
shape and serialize through
:func:`repro.analysis.lint.diagnostic_dict`:

``structure`` (errors)
    Reachable undecodable words; ``menter`` when the serving machine
    has no mroutines loaded (it would always trap); branch/``jal``
    targets that escape the assembled image.
``exit`` (error / warning)
    Control falling off the end of the image is an error.  No
    reachable ``halt`` is a *warning*: the job still runs, bounded by
    its instruction budget — but the client is told it will burn all
    of it.

Reachability is guest-aware: a block's scan stops at the first
``halt``, so data words placed after the final ``halt`` (``.word``
tables and the like) are not flagged.
"""

from __future__ import annotations

from repro.analysis.cfg import T_FALL_OFF, build_cfg
from repro.analysis.passes import Diagnostic
from repro.errors import ReproError
from repro.isa.disasm import format_instruction
from repro.isa.instruction import InstrClass
from repro.serve.api import ServeRejected, error_dict


def lint_guest_program(program, has_mroutines: bool = False,
                       name: str = "program") -> list:
    """Guest-flavoured MAS lint over an assembled :class:`Program`.

    Returns :class:`~repro.analysis.passes.Diagnostic` records (errors
    and warnings).  *has_mroutines* says whether the serving machine
    will have any mroutines loaded — without them, every ``menter`` is
    a guaranteed runtime fault and is rejected statically.
    """
    words = program.words()
    graph = build_cfg(words)
    n = len(words)
    diags = []

    def emit(pass_name, severity, word_index, message):
        raw = words[word_index] if 0 <= word_index < n else None
        instr = (graph.instrs[word_index]
                 if 0 <= word_index < len(graph.instrs) else None)
        diags.append(Diagnostic(
            pass_name=pass_name, severity=severity, word_index=word_index,
            message=message, routine=name, raw=raw,
            disasm=(format_instruction(instr)
                    if instr is not None else None),
        ))

    if not n:
        emit("structure", "error", 0, "empty program")
        return diags

    # Guest-aware reachability: walk blocks from the entry; inside a
    # block, stop at the first halt (unconditional stop), so trailing
    # data is unreachable rather than "undecodable code".
    seen_blocks = set()
    reachable_words = set()
    halt_reached = False
    stack = [0]
    while stack:
        index = stack.pop()
        if index in seen_blocks:
            continue
        seen_blocks.add(index)
        block = graph.blocks[index]
        stopped = False
        for w in range(block.start, block.end):
            reachable_words.add(w)
            instr = graph.instrs[w]
            if instr is None:
                # An undecodable word also ends the walk: execution
                # would fault here, nothing past it is guest-reachable.
                stopped = True
                break
            if instr.mnemonic == "halt":
                halt_reached = True
                stopped = True
                break
        if not stopped:
            stack.extend(block.succs)

    for w in sorted(reachable_words):
        instr = graph.instrs[w]
        if instr is None:
            exc = graph.decode_errors[w]
            emit("structure", "error", w,
                 f"reachable undecodable word {words[w]:#010x} "
                 f"({exc.reason})")
            continue
        m = instr.mnemonic
        if m == "menter" and not has_mroutines:
            emit("structure", "error", w,
                 "menter on a serving machine with no mroutines loaded "
                 "(would always fault)")
        if instr.cls is InstrClass.BRANCH or m == "jal":
            target = 4 * w + instr.imm
            if not 0 <= target < 4 * n:
                emit("structure", "error", w,
                     f"{m} target {target:+#x} escapes the assembled "
                     f"image ({4 * n:#x} bytes)")
            elif target % 4:
                emit("structure", "error", w,
                     f"{m} target {target:+#x} is not word-aligned")

    # Fall-off: a reachable block whose last word runs past the image
    # without halting, branching away, or being cut by a halt.
    for index in sorted(seen_blocks):
        block = graph.blocks[index]
        if block.terminator != T_FALL_OFF:
            continue
        last = block.end - 1
        if last in reachable_words and graph.instrs[last] is not None \
                and graph.instrs[last].mnemonic != "halt":
            emit("exit", "error", last,
                 "control falls off the end of the program")

    if not halt_reached:
        emit("exit", "warn", 0,
             "no reachable halt: the job runs until its instruction "
             "budget is exhausted")
    return diags


def admit_source(spec, ram_bytes: int, has_mroutines: bool = False):
    """Assemble + lint one inline-source :class:`JobSpec`.

    Returns the lint *warnings* (dicts) on success.  Raises
    :class:`ServeRejected` with ``assembly_error`` or ``lint_rejected``
    — the structured errors the HTTP layer returns verbatim.
    """
    from repro.analysis.lint import diagnostic_dict
    from repro.asm import assemble
    from repro.machine.builder import RAM_BASE, assembler_symbols

    try:
        program = assemble(spec.source, base=spec.base,
                           symbols=assembler_symbols())
    except ReproError as exc:
        raise ServeRejected(error_dict(
            "assembly_error", f"{type(exc).__name__}: {exc}"))
    if program.base < RAM_BASE or program.end > RAM_BASE + ram_bytes:
        raise ServeRejected(error_dict(
            "assembly_error",
            f"image [{program.base:#x}, {program.end:#x}) does not fit "
            f"guest RAM [{RAM_BASE:#x}, {RAM_BASE + ram_bytes:#x})"))

    diags = lint_guest_program(program, has_mroutines=has_mroutines,
                               name=spec.name)
    findings = [diagnostic_dict(d) for d in diags]
    errors = [f for f, d in zip(findings, diags) if d.is_error]
    if errors:
        raise ServeRejected(error_dict(
            "lint_rejected",
            f"{len(errors)} lint error(s) in {spec.name!r}",
            findings=findings))
    return [f for f, d in zip(findings, diags) if not d.is_error]
