"""Translation validation: reference vs candidate summary comparison.

:func:`validate_region` proves one tier-2 region correct by
construction comparison.  First the region's source, which MJIT takes
from its process-wide source table, must equal the source the codegen
generates for these members.  Then the reference summary (from the
members' micro-op IR, :mod:`repro.verify.uopsem`) and the candidate summary
(from the generated source, :mod:`repro.verify.pysym`) are built in the
same canonical symbolic domain, so equivalence of register/pc/memory
effects, cycle + instret accounting, the 0/1/2 exit protocol and every
edge's admission checks is plain structural equality — any difference
is a :class:`Finding` citing the member, exit and field.  It also checks
the binding identity of the region's exec namespace (each ``_b<k>``
must be the member, and each ``_i<k>_<i>`` its own decoded
instruction object).
"""

from __future__ import annotations

from repro.cpu.jit import _Codegen
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


def _label(block) -> str:
    return f"{'mram' if block.mram else 'mem'}:{block.start:#x}"


def _check_ns(members, fn, cand, findings: list) -> None:
    ns = getattr(fn, "__globals__", {})
    for k, block in enumerate(members):
        if ns.get(f"_b{k}") is not block:
            findings.append(Finding(
                PASS, _label(block), f"namespace binding _b{k} is not "
                "the region's member"))
    seen = set()
    for ex in cand.exits:
        for ev in ex.events:
            if ev[0] != "exec" or ev[1] in seen:
                continue
            seen.add(ev[1])
            k, idx = ev[1]
            if not (0 <= k < len(members)
                    and 0 <= idx < len(members[k].entries)):
                findings.append(Finding(
                    PASS, _label(members[0]), f"execute() dispatches "
                    f"_i{k}_{idx} outside the region's members"))
                continue
            block = members[k]
            where = _label(block)
            if ns.get(f"_i{k}_{idx}") is not block.entries[idx][0]:
                findings.append(Finding(
                    PASS, where, f"namespace binding _i{k}_{idx} is not "
                    "the member's own decoded instruction"))
            if ev[2] != block.entries[idx][1]:
                findings.append(Finding(
                    PASS, where, f"execute() at entry {idx} passes pc "
                    f"{_render(ev[2])}, entry pc is "
                    f"{block.entries[idx][1]:#x}"))


def _census(exits) -> dict:
    out: dict = {}
    for ex in exits:
        out[ex.kind] = out.get(ex.kind, 0) + 1
    return out


def validate_region(members, line_size=None, scoreboard: bool = False):
    """Prove one compiled region equivalent to its members' IR
    references, edges included.

    Returns a list of :class:`Finding` (empty = proven equivalent), each
    citing the member whose exits differ.  *line_size* and *scoreboard*
    are the codegen mode of the translation cache that compiled the
    region (its ``line_size`` and ``scoreboard``).
    """
    members = tuple(members)
    head = _label(members[0])
    findings: list = []
    fn = getattr(members[0], "jit_fn", None)
    source = getattr(fn, "__jit_source__", None)
    if not source:
        findings.append(Finding(
            PASS, head, "compiled region has no __jit_source__ to "
            "validate"))
        return findings
    if source != _Codegen(members, line_size, scoreboard).generate():
        findings.append(Finding(
            PASS, head, "compiled source differs from the source MJIT "
            "generates for these members (a stale source-table entry)"))
    try:
        ref = reference_summary(members, line_size, scoreboard)
    except UnsupportedBlock as exc:
        findings.append(Finding(
            PASS, head, "region shape outside the reference model "
            "(MJIT should have declined it)", str(exc)))
        return findings
    try:
        cand = candidate_summary(source, fn.__globals__, len(members))
    except UnsupportedSource as exc:
        findings.append(Finding(
            PASS, head, "generated source leaves the MJIT grammar",
            str(exc)))
        return findings

    _check_ns(members, fn, cand, findings)
    if ref.looped != cand.looped:
        findings.append(Finding(
            PASS, head, "region loop mismatch",
            f"reference looped={ref.looped}, candidate "
            f"looped={cand.looped}"))
    _diff_entry(head, ref.entry, cand.entry, findings)

    for k, block in enumerate(members):
        where = _label(block)
        rex = [ex for ex in ref.sorted_exits() if ex.member == k]
        cex = [ex for ex in cand.sorted_exits() if ex.member == k]
        if len(rex) != len(cex):
            findings.append(Finding(
                PASS, where, "exit count mismatch",
                f"reference {_census(rex)}, candidate {_census(cex)}"))
        for r, c in zip(rex, cex):
            _diff_exit(where, r, c, findings)
    return findings
