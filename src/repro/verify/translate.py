"""Translation validation: reference vs candidate summary comparison.

:func:`validate_block` proves one tier-2 block correct by construction
comparison: the reference summary (from the micro-op IR,
:mod:`repro.verify.uopsem`) and the candidate summary (from the
generated source, :mod:`repro.verify.pysym`) are built in the same
canonical symbolic domain, so equivalence of register/pc/memory
effects, cycle + instret accounting and the 0/1/2 exit protocol is
plain structural equality — any difference is a :class:`Finding` with
a block/exit/field citation.  It also checks the binding identity of
the block's exec namespace (each ``_i<k>`` must be the block's own
decoded instruction object).
"""

from __future__ import annotations

from repro.verify import sym as S
from repro.verify.model import Exit, Finding
from repro.verify.pysym import UnsupportedSource, candidate_summary
from repro.verify.uopsem import UnsupportedBlock, reference_summary

PASS = "translation"


def _render(v) -> str:
    if isinstance(v, tuple) and not (len(v) > 0 and isinstance(v[0], str)):
        return "(" + ", ".join(_render(x) for x in v) + ")"
    try:
        return S.render(v)
    except Exception:
        return repr(v)


def _clip(text: str, limit: int = 400) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


def _exit_label(ex: Exit) -> str:
    when = " & ".join(S.render(p) for p in ex.path) if ex.path else "always"
    return f"exit {ex.kind} [{_clip(when, 120)}]"


def _diff_exit(where: str, ref: Exit, cand: Exit, findings: list) -> None:
    label = _exit_label(ref)
    if ref.kind != cand.kind:
        findings.append(Finding(
            PASS, where, f"{label}: exit kind mismatch",
            f"reference {ref.kind}, candidate {cand.kind}"))
        return
    for field in Exit.FIELDS:
        rv = getattr(ref, field)
        cv = getattr(cand, field)
        if rv != cv:
            findings.append(Finding(
                PASS, where, f"{label}: {field} mismatch",
                _clip(f"reference {_render(rv)} != candidate "
                      f"{_render(cv)}")))


def _diff_entry(where: str, ref: dict, cand: dict, findings: list) -> None:
    for name in sorted(set(ref) | set(cand)):
        if name not in cand:
            findings.append(Finding(
                PASS, where, f"loop-entry binding {name} missing from "
                "the generated loop"))
        elif name not in ref:
            findings.append(Finding(
                PASS, where, f"generated loop carries unexpected "
                f"binding {name}",
                _clip(f"candidate {name} := {_render(cand[name])}")))
        elif ref[name] != cand[name]:
            findings.append(Finding(
                PASS, where, f"loop-entry binding {name} mismatch",
                _clip(f"reference {_render(ref[name])} != candidate "
                      f"{_render(cand[name])}")))


def _check_ns(where: str, block, fn, cand, findings: list) -> None:
    ns = getattr(fn, "__globals__", {})
    seen = set()
    for ex in cand.exits:
        for ev in ex.events:
            if ev[0] != "exec" or ev[1] in seen:
                continue
            seen.add(ev[1])
            idx = ev[1]
            if not (0 <= idx < len(block.entries)):
                findings.append(Finding(
                    PASS, where, f"execute() dispatches _i{idx} outside "
                    f"the block's {len(block.entries)} entries"))
                continue
            if ns.get(f"_i{idx}") is not block.entries[idx][0]:
                findings.append(Finding(
                    PASS, where, f"namespace binding _i{idx} is not the "
                    "block's own decoded instruction"))
            if ev[2] != block.entries[idx][1]:
                findings.append(Finding(
                    PASS, where, f"execute() at entry {idx} passes pc "
                    f"{_render(ev[2])}, entry pc is "
                    f"{block.entries[idx][1]:#x}"))


def validate_block(ns_label: str, block, line_size=None,
                   scoreboard: bool = False):
    """Prove one compiled block equivalent to its IR reference.

    Returns a list of :class:`Finding` (empty = proven equivalent).
    *ns_label* is ``"mem"`` or ``"mram"``; *line_size* and *scoreboard*
    are the codegen mode of the translation cache that compiled the
    block (its ``line_size`` and ``scoreboard``).
    """
    where = f"{ns_label}:{block.start:#x}"
    findings: list = []
    fn = getattr(block, "jit_fn", None)
    source = getattr(fn, "__jit_source__", None)
    if not source:
        findings.append(Finding(
            PASS, where, "compiled block has no __jit_source__ to "
            "validate"))
        return findings
    try:
        ref = reference_summary(block, ns_label, line_size, scoreboard)
    except UnsupportedBlock as exc:
        findings.append(Finding(
            PASS, where, "block shape outside the reference model "
            "(MJIT should have declined it)", str(exc)))
        return findings
    try:
        cand = candidate_summary(source, fn.__globals__)
    except UnsupportedSource as exc:
        findings.append(Finding(
            PASS, where, "generated source leaves the MJIT grammar",
            str(exc)))
        return findings

    _check_ns(where, block, fn, cand, findings)
    if ref.looped != cand.looped:
        findings.append(Finding(
            PASS, where, "self-loop internalisation mismatch",
            f"reference looped={ref.looped}, candidate "
            f"looped={cand.looped}"))
    _diff_entry(where, ref.entry, cand.entry, findings)

    rex = ref.sorted_exits()
    cex = cand.sorted_exits()
    if len(rex) != len(cex):
        def census(exits):
            out: dict = {}
            for ex in exits:
                out[ex.kind] = out.get(ex.kind, 0) + 1
            return out
        findings.append(Finding(
            PASS, where, "exit count mismatch",
            f"reference {census(rex)}, candidate {census(cex)}"))
    for r, c in zip(rex, cex):
        _diff_exit(where, r, c, findings)
    return findings

