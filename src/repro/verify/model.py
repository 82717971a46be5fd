"""Shared MVTV data model: block summaries, exits, findings.

A :class:`Summary` is the symbolic meaning of one compiled region (one
block, or a cycle of linked blocks): a set of :class:`Exit` records, one
per feasible path out of a member, each tagged with that member, plus —
for regions whose function loops — the loop-entry instantiation map.
The translation validator derives one summary from the micro-op IR (the
*reference*, :mod:`repro.verify.uopsem`) and one from the generated
Python source (the *candidate*, :mod:`repro.verify.pysym`) and requires
them to be identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.verify import sym as S

#: Exit kinds.  ``ret0``/``abort``/``trap`` map onto the 0/1/2 return
#: protocol; ``loop`` is an edge into a member (the loop continues).
KINDS = ("ret0", "abort", "trap", "loop")


def valid_name(k: int) -> str:
    """The name member *k*'s validity goes by in symbols and carried
    state: ``valid``, ``valid1``, ..."""
    return "valid" if k == 0 else f"valid{k}"


@dataclass(frozen=True)
class Exit:
    """One feasible path out of a block, fully symbolic."""

    kind: str                 # one of KINDS
    path: tuple               # conjunction of canonical literals
    events: tuple             # ordered observable-effect trace
    retired: object           # expr
    loops: object             # expr
    tc: object                # timer.cycles at exit (after final flush)
    regfile: tuple            # sorted ((reg, expr), ...), defaults dropped
    next_pc: object = None    # ret0: successor; abort: resume; trap: epc
    trap: object = None       # trap: raise-site event index
    carried: tuple = ()       # loop: sorted ((name, expr), ...) live state
    member: int = 0           # the member the exit leaves from
    left: object = None       # returned: the member it names as left
    hz: object = None         # returned: the interrupt horizon

    FIELDS = ("path", "events", "retired", "loops", "tc", "regfile",
              "next_pc", "trap", "carried", "left", "hz")

    def sort_key(self):
        return (self.member, self.kind, repr(self.path), repr(self.events))


@dataclass
class Summary:
    """Everything observable about one compiled region."""

    looped: bool
    exits: list                  # of Exit, canonically sorted
    entry: dict = field(default_factory=dict)  # loop-head instantiation

    def sorted_exits(self):
        return sorted(self.exits, key=Exit.sort_key)


@dataclass(frozen=True)
class Finding:
    """One verification failure, with a precise citation."""

    pass_name: str            # translation | snapshot | eviction
    where: str                # block/routine/class citation
    message: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "where": self.where,
            "message": self.message,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        text = f"[{self.pass_name}] {self.where}: {self.message}"
        if self.detail:
            text += f"\n    {self.detail}"
        return text


# ---------------------------------------------------------------------------
# rendering (golden summaries, finding details)
# ---------------------------------------------------------------------------

def _render_event(ev) -> str:
    return "(" + " ".join(
        x if isinstance(x, str) and not x.startswith("'") else S.render(x)
        for x in ((ev[0],) + tuple(ev[1:]))
    ) + ")"


def render_exit(ex: Exit) -> str:
    lines = [f"exit {ex.kind}"]
    if ex.path:
        lines.append("  when  " + " & ".join(S.render(p) for p in ex.path))
    if ex.next_pc is not None:
        label = {"ret0": "next_pc", "abort": "resume", "trap": "epc"}[ex.kind]
        lines.append(f"  {label} {S.render(ex.next_pc)}")
    if ex.trap is not None:
        lines.append(f"  trap  event#{ex.trap}")
    lines.append(f"  retired {S.render(ex.retired)}")
    lines.append(f"  loops {S.render(ex.loops)}")
    lines.append(f"  cycles {S.render(ex.tc)}")
    for reg, expr in ex.regfile:
        lines.append(f"  x{reg} <- {S.render(expr)}")
    for name, expr in ex.carried:
        lines.append(f"  {name} <- {S.render(expr)}")
    # The defaults of a one-member region are left out.
    if ex.left not in (None, 0):
        lines.append(f"  left {ex.left}")
    if ex.hz is not None and ex.hz != S.sym("hz"):
        lines.append(f"  hz {S.render(ex.hz)}")
    for ev in ex.events:
        lines.append("  ! " + _render_event(ev))
    return "\n".join(lines)


def render_summary(summary: Summary) -> str:
    """Stable text form of a region summary (the golden-file format)."""
    lines = []
    if summary.looped:
        lines.append("looped")
        for name in sorted(summary.entry):
            lines.append(f"  {name} := {S.render(summary.entry[name])}")
    member = 0
    for ex in summary.sorted_exits():
        if ex.member != member:
            member = ex.member
            lines.append(f"member {member}")
        lines.append(render_exit(ex))
    return "\n".join(lines) + "\n"
