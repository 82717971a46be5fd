"""``python -m repro lint`` — rustc-style MAS diagnostics for mcode.

Two modes:

* ``python -m repro lint --apps`` lints every bundled mcode application
  (each assembled into its own image, exactly as a machine would load
  it) under :data:`~repro.analysis.passes.LINT_CONFIG`.  CI runs this;
  any *error* diagnostic fails the build.  Warnings are reported but do
  not affect the exit status — they flag patterns (unprovable computed
  accesses, loops) the runtime tolerates.
* ``python -m repro lint routine.s`` lints a single mroutine source
  file.  Resource declarations that normally live on the
  :class:`~repro.metal.mroutine.MRoutine` object come from flags
  (``--mregs``, ``--data-words``, ``--dynamic-jumps``, ...).

Diagnostics render in the familiar compiler shape — severity and pass,
the offending word with its raw encoding and disassembly, and a path
witness showing how control reaches it from the routine entry::

    error[exit]: control falls off the end of the routine (...)
      --> kenter:word 7
       |
     7 | 0x00b50533    add a0, a0, a1
       |
       = path: word 0 -> word 5 -> word 7
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.passes import (
    LINT_CONFIG,
    analyze_routine,
    check_image_mregs,
)
from repro.errors import ReproError
from repro.metal.loader import load_mroutines
from repro.metal.mroutine import MRoutine


# ---------------------------------------------------------------------------
# The bundled applications (paper §3), each built with the representative
# parameters the tests and benchmarks use.  Every factory is self-contained:
# one registry entry assembles into one loadable image.
# ---------------------------------------------------------------------------

_FAULT_ENTRY = 0x1040
_KIRQ_ENTRY = 0x1080
_SYSCALL_TABLE = 0x2E00


def _app_privilege():
    from repro.mcode.privilege import (
        make_isolation_routines,
        make_kernel_user_routines,
    )
    return (make_kernel_user_routines(_SYSCALL_TABLE, _FAULT_ENTRY)
            + make_isolation_routines(0x5000, vault_key=3))


def _app_pagetable():
    from repro.mcode.pagetable import make_pagetable_routines
    return make_pagetable_routines(0x2F00, _FAULT_ENTRY)


def _app_stm():
    from repro.mcode.stm import make_stm_routines
    return make_stm_routines(0x20000, 0x21000)


def _app_uli():
    from repro.mcode.uli import make_uli_routines
    return make_uli_routines(_KIRQ_ENTRY)


def _app_virt():
    from repro.mcode.virt import make_virt_routines
    return make_virt_routines(_FAULT_ENTRY)


def _app_enclave():
    from repro.mcode.enclave import make_enclave_routines
    return make_enclave_routines()


def _app_capability():
    from repro.mcode.capability import make_capability_routines
    return make_capability_routines()


def _app_shadowstack():
    from repro.mcode.shadowstack import make_shadowstack_routines
    return make_shadowstack_routines()


def _app_runtime():
    """Exercise the :mod:`repro.mcode.runtime` helper generators as a
    routine of their own, so the shared idioms themselves stay lintable."""
    from repro.mcode.runtime import (
        PRIV_KERNEL,
        privilege_check,
        raise_privilege_violation,
        restore_scratch,
        save_scratch,
    )
    scratch = (("t0", 20), ("t1", 21))
    source = "\n".join([
        save_scratch(scratch),
        privilege_check(PRIV_KERNEL, fail_label="rt_fail"),
        restore_scratch(scratch),
        "    mexit",
        "rt_fail:",
        restore_scratch(scratch),
        raise_privilege_violation(),
    ])
    return [MRoutine(name="runtime_demo", entry=0, source=source,
                     mregs=(20, 21), shared_mregs=(0,))]


def _app_synth():
    """MSYNTH's generated routines (small-scale profile of the fusion
    workloads) — linting them alongside the hand-written applications
    keeps ``python -m repro lint --apps`` an acceptance gate for the
    synthesizer's code generator."""
    from repro.synth.pipeline import generated_routines
    return generated_routines()


APPS = {
    "privilege": _app_privilege,
    "pagetable": _app_pagetable,
    "stm": _app_stm,
    "uli": _app_uli,
    "virt": _app_virt,
    "enclave": _app_enclave,
    "capability": _app_capability,
    "shadowstack": _app_shadowstack,
    "runtime": _app_runtime,
    "synth": _app_synth,
}


# ---------------------------------------------------------------------------
# Analysis driver
# ---------------------------------------------------------------------------

def lint_routines(routines, config=LINT_CONFIG):
    """Assemble *routines* into a fresh image and analyze each one.

    Returns ``(results, extra_diags)`` where *results* maps routine name
    to :class:`~repro.analysis.passes.AnalysisResult` and *extra_diags*
    holds the cross-routine image checks.  Raises
    :class:`~repro.errors.MroutineLoadError` if the set cannot even be
    assembled/placed (duplicate entries, bad symbols, segment overflow).
    """
    from repro.machine.builder import assembler_symbols

    routines = list(routines)
    # verify=False: placement only — MAS below is the verifier, and we
    # want diagnostics collected, not the loader's first-error raise.
    image = load_mroutines(routines, extra_symbols=assembler_symbols(),
                           verify=False)
    results = {}
    for routine in routines:
        ranges = [_data_range(routine)]
        for other_name in routine.shared_data:
            ranges.append(_data_range(image.routines[other_name]))
        ranges = [r for r in ranges if r[0] < r[1]]
        results[routine.name] = analyze_routine(
            routine, allowed_data_ranges=ranges or [(0, 0)], config=config)
    extra = check_image_mregs(results)
    return results, extra


def _data_range(routine):
    return (routine.data_offset, routine.data_offset + 4 * routine.data_words)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def diagnostic_dict(diag) -> dict:
    """One diagnostic as a JSON-ready dict (``--json`` output; the
    MVTV ``python -m repro verify --json`` report mirrors this shape)."""
    return {
        "pass": diag.pass_name,
        "severity": diag.severity,
        "routine": diag.routine,
        "word": diag.word_index,
        "message": diag.message,
        "raw": diag.raw,
        "disasm": diag.disasm,
        "witness": list(diag.witness) if diag.witness else None,
    }


def image_report_dict(name, results, extra) -> dict:
    """One linted image as a JSON-ready dict."""
    diags = []
    for result in results.values():
        diags.extend(result.diagnostics)
    diags.extend(extra)
    diags.sort(key=lambda d: (d.routine, d.word_index, d.pass_name))
    errors = sum(1 for d in diags if d.is_error)
    return {
        "image": name,
        "routines": sorted(results),
        "errors": errors,
        "warnings": len(diags) - errors,
        "diagnostics": [diagnostic_dict(d) for d in diags],
        "facts": {rname: result.facts.to_dict()
                  for rname, result in results.items()},
    }


def render_diagnostic(diag) -> str:
    """One diagnostic in the rustc shape (see module docstring)."""
    where = diag.routine or "<routine>"
    lines = [
        f"{diag.severity}[{diag.pass_name}]: {diag.message}",
        f"  --> {where}:word {diag.word_index}",
        "   |",
    ]
    if diag.raw is not None:
        body = f"0x{diag.raw:08x}"
        if diag.disasm:
            body += f"    {diag.disasm}"
        else:
            body += "    <undecodable>"
        lines.append(f"{diag.word_index:>3} | {body}")
        lines.append("   |")
    if diag.witness:
        path = " -> ".join(f"word {w}" for w in diag.witness)
        lines.append(f"   = path: {path}")
    return "\n".join(lines)


def render_facts(result) -> str:
    f = result.facts
    bits = [
        f"purity={f.purity.value}",
        f"loops={f.has_loops}",
        f"dynamic_jumps={f.has_dynamic_jumps}",
    ]
    if f.max_path_instructions is not None:
        bits.append(f"max_path={f.max_path_instructions}")
    if f.mregs_read or f.mregs_written:
        reads = ",".join(f"m{m}" for m in sorted(f.mregs_read)) or "-"
        writes = ",".join(f"m{m}" for m in sorted(f.mregs_written)) or "-"
        bits.append(f"mregs r:{reads} w:{writes}")
    if f.unproven_accesses:
        bits.append(f"unproven_accesses={f.unproven_accesses}")
    return f"   = facts: {', '.join(bits)}"


def _report(name, results, extra, show_facts, out) -> tuple:
    """Print the diagnostics for one image; return (errors, warnings)."""
    diags = []
    for result in results.values():
        diags.extend(result.diagnostics)
    diags.extend(extra)
    diags.sort(key=lambda d: (d.routine, d.word_index, d.pass_name))
    errors = sum(1 for d in diags if d.is_error)
    warnings = len(diags) - errors
    for diag in diags:
        print(render_diagnostic(diag), file=out)
        print(file=out)
    if show_facts:
        for rname, result in results.items():
            print(f"{rname}:", file=out)
            print(render_facts(result), file=out)
    status = "ok" if not errors else "FAILED"
    print(f"[{name}] {len(results)} routines: {errors} errors, "
          f"{warnings} warnings ({status})", file=out)
    return errors, warnings


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static analysis (MAS) for mcode routines.",
    )
    parser.add_argument("program", nargs="?",
                        help="mroutine assembly source file")
    parser.add_argument("--apps", action="store_true",
                        help="lint every bundled mcode application")
    parser.add_argument("--app", action="append", choices=sorted(APPS),
                        help="lint one bundled application (repeatable)")
    parser.add_argument("--facts", action="store_true",
                        help="print the derived per-routine facts")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write a machine-readable report here")
    # Declarations for single-file mode (the MRoutine fields).
    parser.add_argument("--name", default=None,
                        help="routine name (default: file stem)")
    parser.add_argument("--entry", type=int, default=0)
    parser.add_argument("--data-words", type=int, default=0)
    parser.add_argument("--mregs", default="",
                        help="comma-separated owned persistent MRegs")
    parser.add_argument("--shared-mregs", default="",
                        help="comma-separated shared persistent MRegs")
    parser.add_argument("--dynamic-jumps", action="store_true",
                        help="declare intentional jalr use")
    return parser


def _parse_mregs(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def lint_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    names = []
    if args.apps:
        names = sorted(APPS)
    elif args.app:
        names = list(dict.fromkeys(args.app))
    elif not args.program:
        build_parser().print_usage(file=sys.stderr)
        print("error: give a source file, --apps or --app NAME",
              file=sys.stderr)
        return 2

    total_errors = 0
    images = []
    for name in names:
        try:
            results, extra = lint_routines(APPS[name]())
        except ReproError as exc:
            print(f"error[load]: [{name}] {exc}", file=sys.stderr)
            images.append({"image": name, "load_error": str(exc)})
            total_errors += 1
            continue
        errors, _ = _report(name, results, extra, args.facts, sys.stdout)
        images.append(image_report_dict(name, results, extra))
        total_errors += errors

    if args.program:
        try:
            with open(args.program) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stem = args.program.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        rname = args.name or (stem if stem.isidentifier() else "routine")
        routine = MRoutine(
            name=rname, entry=args.entry, source=source,
            data_words=args.data_words,
            mregs=_parse_mregs(args.mregs),
            shared_mregs=_parse_mregs(args.shared_mregs),
            allow_dynamic_jumps=args.dynamic_jumps,
        )
        try:
            results, extra = lint_routines([routine])
        except ReproError as exc:
            print(f"error[load]: {exc}", file=sys.stderr)
            return 1
        errors, _ = _report(rname, results, extra, args.facts, sys.stdout)
        images.append(image_report_dict(rname, results, extra))
        total_errors += errors

    if args.json_path:
        import json
        payload = {
            "tool": "mas-lint",
            "images": images,
            "errors": total_errors,
            "ok": not total_errors,
        }
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json_path}")

    return 1 if total_errors else 0


if __name__ == "__main__":
    sys.exit(lint_main())
