"""Candidate block summaries from MJIT-generated Python source.

This is the *candidate* side of the translation validator: a symbolic
evaluator over the ``ast`` of a compiled region's ``__jit_source__``.
It knows nothing about the micro-op IR — it only understands the
restricted Python the codegen emits (straight-line arithmetic on
locals, the guest-state markers bound in the prologue, the semantics
helpers from the exec namespace, the I-cache and timer calls,
``if``/``while True``/``try`` control flow and the 7-tuple return
protocol) and turns the function into a :class:`Summary` in the same
canonical form :mod:`repro.verify.uopsem` builds from the IR.  A
``while True`` is a loop only when its body holds a ``continue``;
otherwise every path leaves it at a ``break``.  A path that traps runs
the ``except TrapException`` handler and continues after the ``try``,
with the handler's name unbound, as Python unbinds it.  The
function is evaluated once per member, with the entry argument ``m``
bound to that member's index, so each exit is tagged with the member it
leaves from and the loop head dispatches to exactly one member.

The I-cache and timer calls are events: ``access(pc)`` (ordered, with a
symbolic latency), ``timer.note_run(schedule, access, fetch_cost)``
with the schedule the exec namespace binds, ``timer.note(step)``,
``timer.note_op(fetch, rs_a, rs_b, rd, mem, is_load, extra, control)``
with its eight arguments, and the one-batch I-cache hit credit
``_ist.hits += ih``.  A ``note_run`` that also reports the op ending
the run reads as the events it replaces: the run's, the op's line-head
``access`` (when its plan names one) and the op's ``note_op``.  So are
the Metal unit's state accesses: an MReg list read or write,
``exit_metal()``
(with a symbolic resume pc), and the status-2 exit of the unraised
ECALL trap the namespace binds as ``_ecall`` or of the INTERCEPT trap a
member binds as ``_icept<k>`` (with its word); ``mexitm``'s
``core.rset(index, value)`` writes the register file under a symbolic
index.  ``timer.note_event(cycles)``, ``timer.note_trap(metal)`` and
``timer.note_intercept()`` are timer calls too.  The crossings a region
makes in place are events as well: the unit's ``deliver`` (whose
``MetalError`` leaves with status 2 and the error), ``enter`` (whose
``MetalError`` raises the illegal-instruction trap), the intercept
table's ``match``, and the engine's ``cross()`` re-check (a symbolic
horizon, after which every member's ``valid`` is fresh).  An edge's
admission checks are path literals.  A timer call
leaves ``timer.cycles`` at a fresh symbol, so the timer itself stays
trusted and only what the code hands it is compared.  Likewise every
call that can touch a device (``sync``, ``read_mem``, ``write_mem``,
``execute``) leaves ``bus.horizon`` at a fresh symbol, which the
horizon exits compare with the ``hz`` parameter.

Joins whose arms only compute data are ITE-merged so the summary stays
small; joins that decide the block's successor (``next_pc`` writes) or
produce observable events stay path-split, mirroring the reference's
per-exit structure.  Source outside the expected grammar — a symptom
of a corrupted codegen, exactly what the validator exists to catch —
raises :class:`UnsupportedSource`, which the driver reports as a
finding rather than trusting the block.
"""

from __future__ import annotations

import ast
import copy
import re

from repro.cpu.exceptions import Cause, TrapException
from repro.cpu.pipeline import RunPlan
from repro.verify import sym as S
from repro.verify.model import Exit, Summary, valid_name

#: The MJIT calling convention, one for both namespaces.
PARAMS = ("core", "m", "timer", "sync", "instret_base", "budget", "stop",
          "hz", "quantum", "cross")

#: Loop-carried names the evaluator generalises at a ``while True`` head
#: (anything else assigned in the body but the member index ``m`` must
#: be provably loop-invariant).
_GENERAL = re.compile(r"^(r\d+|retired|loops|cyc|epc|ih|hz|live)$")

_INSTR_NAME = re.compile(r"^_i(\d+)_(\d+)$")
_ICEPT_NAME = re.compile(r"^_icept\d+$")
_MEMBER_NAME = re.compile(r"^_b(\d+)$")
_OPFN_NAME = re.compile(r"^_op_(\w+)$")
_SCHED_NAME = re.compile(r"^_q\d+$")


class UnsupportedSource(Exception):
    """The source is outside the MJIT grammar the evaluator models."""


class _Mark:
    """Opaque runtime object (core, regfile, bound helper, StepInfo...)."""

    __slots__ = ("tag", "arg")

    def __init__(self, tag: str, arg=None):
        self.tag = tag
        self.arg = arg

    def __eq__(self, other):
        return (isinstance(other, _Mark) and self.tag == other.tag
                and self.arg == other.arg)

    def __hash__(self):
        return hash((self.tag, self.arg))

    def __repr__(self):
        return (f"<{self.tag}>" if self.arg is None
                else f"<{self.tag} {self.arg}>")


_CORE = _Mark("core")
_BUS = _Mark("bus")
_BLOCK = _Mark("block")
_TIMER = _Mark("timer")
_TIMING = _Mark("timing")
_REGS = _Mark("regs")
_SYNC = _Mark("sync")
_READM = _Mark("read_mem")
_WRITEM = _Mark("write_mem")
_METAL = _Mark("metal")
_MREGS = _Mark("mregs")
_MRLIST = _Mark("mrlist")
_MEXIT = _Mark("mexit")
_RSET = _Mark("rset")
_ECALL = _Mark("ecall")
_MRAM = _Mark("mram")
_DATA = _Mark("data")
_EXEC = _Mark("execute")
_UPK = _Mark("upk")
_PK = _Mark("pk")
_TRAPCTOR = _Mark("trapctor")
_ICACHE = _Mark("icache")
_ACCESS = _Mark("access")
_ISTATS = _Mark("istats")
_NOTE = _Mark("note")
_NOTERUN = _Mark("note_run")
_NOTEEVENT = _Mark("note_event")
_NOTEOP = _Mark("note_op")
_NOTETRAP = _Mark("note_trap")
_NOTEICEPT = _Mark("note_intercept")
_DELIVER = _Mark("deliver")
_ENTER = _Mark("enter")
_ITABLE = _Mark("itable")
_MATCH = _Mark("match")

#: Attribute reads on opaque markers (state-bearing ones are special-
#: cased in :meth:`_Ev.eval` because they read evaluator state).
_ATTRS = {
    ("core", "regs"): _REGS,
    ("core", "bus"): _BUS,
    ("core", "read_mem"): _READM,
    ("core", "write_mem"): _WRITEM,
    ("core", "metal"): _METAL,
    ("core", "rset"): _RSET,
    ("core", "icache"): _ICACHE,
    ("icache", "access"): _ACCESS,
    ("icache", "hit_latency"): S.sym("I.hit_latency"),
    ("icache", "stats"): _ISTATS,
    ("timer", "timing"): _TIMING,
    ("timer", "note"): _NOTE,
    ("timer", "note_run"): _NOTERUN,
    ("timer", "note_event"): _NOTEEVENT,
    ("timer", "note_op"): _NOTEOP,
    ("timer", "note_trap"): _NOTETRAP,
    ("timer", "note_intercept"): _NOTEICEPT,
    ("metal", "mregs"): _MREGS,
    ("metal", "mram"): _MRAM,
    ("metal", "exit_metal"): _MEXIT,
    ("metal", "deliver"): _DELIVER,
    ("metal", "enter"): _ENTER,
    ("metal", "intercept"): _ITABLE,
    ("itable", "match"): _MATCH,
    ("mregs", "values"): _MRLIST,
    ("mram", "data"): _DATA,
    ("mram", "data_bytes"): S.sym("mram.data_bytes"),
    ("mram", "code_version"): S.sym("mram.code_version"),
}

_STEPINFO_ATTRS = {"next_pc": "next_pc"}


class CState:
    """One symbolic path through the generated function."""

    __slots__ = ("vars", "regfile", "tc", "valid", "horizon", "events",
                 "path", "counter")

    def __init__(self, members: int = 1):
        self.vars = {}
        self.regfile = {}
        self.tc = S.sym("T.cycles0")
        #: Each member's ``valid``.
        self.valid = [S.sym("V0" if k == 0 else f"V0.{k}")
                      for k in range(members)]
        #: The bus horizon: each device-touching event leaves it at a
        #: fresh symbol, read back by the horizon exits.
        self.horizon = S.sym("H0")
        self.events = []
        self.path = []
        self.counter = 0

    def fork(self, extra=None) -> "CState":
        st = copy.copy(self)
        st.vars = dict(self.vars)
        st.regfile = dict(self.regfile)
        st.valid = list(self.valid)
        st.events = list(self.events)
        st.path = list(self.path)
        if extra is not None:
            st.path.append(extra)
        return st

    def alloc(self, event: tuple) -> int:
        k = self.counter
        self.counter += 1
        self.events.append(event)
        return k

    def invalidate(self, k: int) -> None:
        """Event *k* may have evicted any member."""
        self.valid = [_esym(k, valid_name(j)) for j in range(len(self.valid))]


def _esym(k: int, what: str):
    return S.sym(f"e{k}.{what}")


# ---------------------------------------------------------------------------
# AST scans (loop-head classification)
# ---------------------------------------------------------------------------

def _assigned_names(nodes) -> set:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            targets = ()
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, ast.AugAssign):
                targets = (sub.target,)
            for t in targets:
                if isinstance(t, ast.Name):
                    out.add(t.id)
                elif isinstance(t, ast.Tuple):
                    out.update(e.id for e in t.elts
                               if isinstance(e, ast.Name))
    return out


def _has_call(nodes, names: frozenset) -> bool:
    for node in nodes:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in names):
                return True
    return False


def _assigns_attr(nodes, attr: str) -> bool:
    for node in nodes:
        for sub in ast.walk(node):
            target = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
            elif isinstance(sub, ast.AugAssign):
                target = sub.target
            if isinstance(target, ast.Attribute) and target.attr == attr:
                return True
    return False


def _assigns_name(node, name: str) -> bool:
    return name in _assigned_names([node])


def _transfers(node) -> bool:
    """Whether *node* holds a ``continue``, ``break`` or ``return``: an
    ``if`` that decides where control goes stays path-split."""
    return any(isinstance(sub, (ast.Continue, ast.Break, ast.Return))
               for sub in ast.walk(node))


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

class _Ev:
    def __init__(self, ns, member: int = 0):
        self.ns = ns               # the function's exec namespace
        self.member = member       # the member this evaluation enters
        self.exits = []
        self.entry = {}
        self.looped = False
        self.handler = None        # (stmts, alias, trapped) inside a try
        self.invariants = {}       # un-generalised loop-carried locals
        self.carries_m = False     # the loop body assigns ``m``
        self.fallible = None       # event of the last unit call

    # -- state helpers ---------------------------------------------------
    def rf_default(self, n: int):
        return S.sym(f"R{n}")

    def rf_get(self, st: CState, n: int):
        return st.regfile.get(n, self.rf_default(n))

    def norm_regfile(self, st: CState) -> tuple:
        return tuple(sorted(
            (n, e) for n, e in st.regfile.items()
            if e != self.rf_default(n)))

    # -- expressions -----------------------------------------------------
    def eval(self, node, st: CState):
        if isinstance(node, ast.Constant):
            v = node.value
            if v is None or v is True or v is False or isinstance(v, (int, str)):
                return v
            raise UnsupportedSource(f"constant {v!r}")
        if isinstance(node, ast.Name):
            return self.load_name(node.id, st)
        if isinstance(node, ast.Attribute):
            return self.load_attr(node, st)
        if isinstance(node, ast.Subscript):
            return self.load_sub(node, st)
        if isinstance(node, ast.BinOp):
            a = self.eval(node.left, st)
            b = self.eval(node.right, st)
            return self.binop(node.op, a, b)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                v = self.eval(node.operand, st)
                return S.mul_const(v, -1)
            if isinstance(node.op, ast.UAdd):
                v = self.eval(node.operand, st)
                return S.b2i(v) if self.is_bool(v) else v
            if isinstance(node.op, ast.Not):
                return S.not_(S.truth(self.eval(node.operand, st)))
            raise UnsupportedSource("unary ~")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise UnsupportedSource("chained comparison")
            a = self.eval(node.left, st)
            b = self.eval(node.comparators[0], st)
            return self.compare(node.ops[0], a, b)
        if isinstance(node, ast.BoolOp):
            junction = S.band if isinstance(node.op, ast.And) else S.bor
            return junction(*(S.truth(self.eval(v, st))
                              for v in node.values))
        if isinstance(node, ast.IfExp):
            c = S.truth(self.eval(node.test, st))
            return S.ite(c, self.eval(node.body, st),
                         self.eval(node.orelse, st))
        if isinstance(node, ast.Call):
            return self.call(node, st)
        if isinstance(node, ast.Tuple):
            return tuple(self.eval(e, st) for e in node.elts)
        if isinstance(node, ast.Set):
            values = [self.eval(e, st) for e in node.elts]
            if not all(isinstance(v, int) for v in values):
                raise UnsupportedSource("set of non-constants")
            return frozenset(values)
        raise UnsupportedSource(f"expression {ast.dump(node)[:60]}")

    @staticmethod
    def is_bool(v) -> bool:
        if isinstance(v, bool):
            return True
        return isinstance(v, tuple) and len(v) > 0 and v[0] in S._BOOL_OPS

    def load_name(self, name: str, st: CState):
        if name in st.vars:
            return st.vars[name]
        m = _INSTR_NAME.match(name)
        if m:
            return _Mark("instr", (int(m.group(1)), int(m.group(2))))
        m = _MEMBER_NAME.match(name)
        if m:
            if name not in self.ns:
                raise UnsupportedSource(f"member {name!r} is not bound")
            return _Mark("member", int(m.group(1)))
        if name == "_cv":
            if name not in self.ns:
                raise UnsupportedSource("_cv is not bound")
            return S.sym("cv")
        m = _OPFN_NAME.match(name)
        if m:
            return _Mark("opfn", m.group(1))
        if _SCHED_NAME.match(name):
            sched = self.ns.get(name)
            if not isinstance(sched, RunPlan):
                raise UnsupportedSource(f"schedule {name!r} is not bound")
            return sched
        if name == "_ecall":
            trap = self.ns.get(name)
            if (not isinstance(trap, TrapException)
                    or trap.cause != Cause.ECALL or trap.info != 0):
                raise UnsupportedSource("_ecall is not an ECALL trap")
            return _ECALL
        if _ICEPT_NAME.match(name):
            trap = self.ns.get(name)
            if (not isinstance(trap, TrapException)
                    or trap.cause != Cause.INTERCEPT):
                raise UnsupportedSource("_icept is not an INTERCEPT trap")
            return _Mark("icept", trap.info)
        raise UnsupportedSource(f"read of undefined name {name!r}")

    def load_attr(self, node: ast.Attribute, st: CState):
        base = self.eval(node.value, st)
        if not isinstance(base, _Mark):
            raise UnsupportedSource(f"attribute on non-object .{node.attr}")
        if base.tag == "timer" and node.attr == "cycles":
            return st.tc
        if base.tag == "member" and node.attr == "valid":
            if not 0 <= base.arg < len(st.valid):
                raise UnsupportedSource(f"member {base.arg} out of range")
            return st.valid[base.arg]
        if base.tag == "bus" and node.attr == "horizon":
            return st.horizon
        if base.tag == "timing":
            return S.sym(f"T.{node.attr}")
        if base.tag == "stepinfo":
            field = _STEPINFO_ATTRS.get(node.attr)
            if field is None:
                raise UnsupportedSource(f"StepInfo attribute .{node.attr}")
            return _esym(base.arg, field)
        out = _ATTRS.get((base.tag, node.attr))
        if out is None:
            raise UnsupportedSource(f"attribute {base.tag}.{node.attr}")
        return out

    def load_sub(self, node: ast.Subscript, st: CState):
        base = self.eval(node.value, st)
        idx = self.eval(node.slice, st)
        if not isinstance(idx, int):
            raise UnsupportedSource("symbolic subscript index")
        if isinstance(base, _Mark) and base.tag == "regs":
            return 0 if idx == 0 else self.rf_get(st, idx)
        if isinstance(base, _Mark) and base.tag == "mrlist" and 0 <= idx < 32:
            return _esym(st.alloc(("mrr", idx)), "val")
        if isinstance(base, _Mark) and base.tag == "upkres" and idx == 0:
            return _esym(base.arg, "val")
        raise UnsupportedSource("subscript on unexpected object")

    def binop(self, op, a, b):
        if isinstance(op, ast.Add):
            return S.add(a, b)
        if isinstance(op, ast.Sub):
            return S.sub(a, b)
        if isinstance(op, ast.Mult):
            if isinstance(a, int):
                return S.mul_const(b, a)
            if isinstance(b, int):
                return S.mul_const(a, b)
            raise UnsupportedSource("non-linear multiply")
        if isinstance(op, ast.BitAnd):
            return S.and_(a, b)
        if isinstance(op, ast.BitOr):
            return S.or_(a, b)
        if isinstance(op, ast.BitXor):
            return S.xor(a, b)
        if isinstance(op, ast.LShift):
            return S.shl(a, b)
        if isinstance(op, ast.RShift):
            return S.shr(a, b)
        raise UnsupportedSource(f"operator {type(op).__name__}")

    def compare(self, op, a, b):
        if isinstance(op, ast.Eq):
            return S.eq(a, b)
        if isinstance(op, ast.NotEq):
            return S.ne(a, b)
        if isinstance(op, ast.Lt):
            return S.lt(a, b)
        if isinstance(op, ast.LtE):
            return S.le(a, b)
        if isinstance(op, ast.Gt):
            return S.lt(b, a)
        if isinstance(op, ast.GtE):
            return S.le(b, a)
        if isinstance(op, ast.Is):
            if b is None:
                return S.isnone(a)
            raise UnsupportedSource("is against non-None")
        if isinstance(op, ast.IsNot):
            if b is None:
                return S.notnone(a)
            raise UnsupportedSource("is not against non-None")
        if isinstance(op, ast.NotIn):
            if not (isinstance(b, frozenset)
                    and all(isinstance(v, int) for v in b)):
                raise UnsupportedSource("not in a non-constant set")
            return S.notin(a, b)
        raise UnsupportedSource(f"comparison {type(op).__name__}")

    # -- calls (the event vocabulary) ------------------------------------
    def call(self, node: ast.Call, st: CState):
        if isinstance(node.func, ast.Name) and node.func.id == "cross":
            # The engine's crossing re-check (a parameter).
            if node.args or node.keywords:
                raise UnsupportedSource("cross() takes no args")
            k = st.alloc(("cross",))
            st.invalidate(k)
            return _esym(k, "hz")
        fn = self.eval(node.func, st)
        if not isinstance(fn, _Mark):
            raise UnsupportedSource("call of non-helper")
        if fn.tag == "note_run":
            return self.note_run(node, st)
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                raise UnsupportedSource("**kwargs in call")
            kwargs[kw.arg] = self.eval(kw.value, st)
        args = [self.eval(a, st) for a in node.args]
        tag = fn.tag
        if tag == "sync":
            self.expect_args(tag, args, kwargs, 0)
            k = st.alloc(("sync", st.tc))
            st.invalidate(k)
            st.horizon = _esym(k, "horizon")
            return None
        if tag == "read_mem":
            self.expect_args(tag, args, kwargs, 2)
            k = st.alloc(("read", args[0], args[1]))
            self.trap_fork(st, k)
            st.horizon = _esym(k, "horizon")
            return _Mark("multi", (_esym(k, "val"), _esym(k, "lat")))
        if tag == "write_mem":
            self.expect_args(tag, args, kwargs, 3)
            k = st.alloc(("write", args[0], args[1], args[2]))
            self.trap_fork(st, k)
            st.invalidate(k)
            st.horizon = _esym(k, "horizon")
            return _esym(k, "lat")
        if tag == "execute":
            if (len(args) != 3 or set(kwargs) != {"fetch_latency"}
                    or not isinstance(args[0], _Mark)
                    or args[0].tag != "core"
                    or not isinstance(args[1], _Mark)
                    or args[1].tag != "instr"):
                raise UnsupportedSource("execute() call shape")
            k = st.alloc(("exec", args[1].arg, args[2],
                          kwargs["fetch_latency"]))
            for n in range(1, 32):
                st.regfile[n] = _esym(k, f"r{n}")
            st.invalidate(k)  # a store may evict a block
            st.horizon = _esym(k, "horizon")
            self.trap_fork(st, k)
            return _Mark("stepinfo", k)
        if tag == "access":
            self.expect_args(tag, args, kwargs, 1)
            k = st.alloc(("access", args[0]))
            return _esym(k, "lat")
        if tag == "note":
            self.expect_args(tag, args, kwargs, 1)
            step = args[0]
            if not (isinstance(step, _Mark) and step.tag == "stepinfo"):
                raise UnsupportedSource("note() of a non-StepInfo")
            k = st.alloc(("note", step.arg))
            st.tc = _esym(k, "tc")
            return None
        if tag in ("note_event", "note_trap", "note_intercept"):
            self.expect_args(tag, args, kwargs,
                             0 if tag == "note_intercept" else 1)
            k = st.alloc((tag, *args))
            st.tc = _esym(k, "tc")
            return None
        if tag in ("deliver", "enter", "match"):
            self.expect_args(tag, args, kwargs,
                             {"deliver": 5, "enter": 2, "match": 1}[tag])
            if any(isinstance(a, _Mark) for a in args):
                raise UnsupportedSource(f"{tag}() of an opaque object")
            k = st.alloc((tag, *args))
            self.fallible = k
            return _esym(k, "entry" if tag == "match" else "pc")
        if tag == "note_op":
            self.expect_args(tag, args, kwargs, 8)
            if any(isinstance(a, _Mark) for a in args):
                raise UnsupportedSource("note_op() of an opaque object")
            k = st.alloc(("note_op", *args))
            st.tc = _esym(k, "tc")
            return None
        if tag == "mexit":
            self.expect_args(tag, args, kwargs, 0)
            return _esym(st.alloc(("mexit",)), "pc")
        if tag == "rset":
            self.expect_args(tag, args, kwargs, 2)
            index, value = args
            for n in range(1, 32):
                st.regfile[n] = S.ite(S.eq(index, n), value,
                                      self.rf_get(st, n))
            return None
        if tag == "upk":
            self.expect_args(tag, args, kwargs, 2)
            self.expect_data(args[0])
            k = st.alloc(("upk", args[1]))
            return _Mark("upkres", k)
        if tag == "pk":
            self.expect_args(tag, args, kwargs, 3)
            self.expect_data(args[0])
            st.alloc(("pk", args[1], args[2]))
            return None
        if tag == "opfn":
            self.expect_args(tag, args, kwargs, 2)
            return S.alu(fn.arg, args[0], args[1])
        if tag == "trapctor":
            self.expect_args(tag, args, kwargs, 2)
            if not isinstance(args[0], int):
                raise UnsupportedSource("symbolic trap cause")
            k = st.alloc(("raise", args[0], args[1]))
            return _Mark("trapval", k)
        raise UnsupportedSource(f"call of {tag}")

    def note_run(self, node: ast.Call, st: CState) -> None:
        """``note_run(run, access, fetch_cost)``, and with an op fused
        ``note_run(run, access, fetch_cost, fetch, rd, extra,
        control)``: the run's event, with the schedule bound as *run*;
        then, when its plan fuses an op, the events that op's own fetch
        and charge would make: the access of the line head the plan
        names (*fetch* None), and a ``note_op`` with the registers the
        plan names it reading and no data access.  The op's arguments
        are read after the run's event, as the reference reads the op
        after the run: they read no timer state, and the timer none of
        the guest's."""
        args = node.args
        if node.keywords or len(args) not in (3, 7):
            raise UnsupportedSource("note_run() call shape")
        run, access, cost = (self.eval(a, st) for a in args[:3])
        if not isinstance(run, RunPlan) or not (
                access is None or access == _ACCESS):
            raise UnsupportedSource("note_run() call shape")
        if (run.op is None) != (len(args) == 3):
            raise UnsupportedSource("note_run() arguments do not match "
                                    "its plan's op")
        k = st.alloc(("note_run", tuple(run),
                      None if access is None else "access", cost))
        st.tc = _esym(k, "tc")
        if run.op is None:
            return None
        head, rs_a, rs_b = run.op
        fetch = self.eval(args[3], st)
        if (fetch is None) != (head is not None) or (
                head is not None and access is None):
            raise UnsupportedSource("note_run() fetch does not match its "
                                    "plan's op head")
        if fetch is None:
            fetch = _esym(st.alloc(("access", head)), "lat")
        rd, extra, control = (self.eval(a, st) for a in args[4:])
        if any(isinstance(a, _Mark) for a in (fetch, rd, extra, control)):
            raise UnsupportedSource("note_run() of an opaque object")
        k = st.alloc(("note_op", fetch, rs_a, rs_b, rd, 0, False, extra,
                      control))
        st.tc = _esym(k, "tc")
        return None

    @staticmethod
    def expect_args(tag, args, kwargs, n) -> None:
        if len(args) != n or kwargs:
            raise UnsupportedSource(f"{tag}() takes {n} args, "
                                    f"got {len(args)}")

    @staticmethod
    def expect_data(v) -> None:
        if not (isinstance(v, _Mark) and v.tag == "data"):
            raise UnsupportedSource("raw access not on the MRAM data "
                                    "segment")

    # -- trap routing ----------------------------------------------------
    def trap_fork(self, st: CState, site: int) -> None:
        """A call that may raise: fork the trap path into the handler."""
        self.route_trap(st.fork(), site)

    def route_trap(self, st: CState, site: int) -> None:
        """Run the handler on the trapped path *st*; what falls out of
        it continues after the ``try`` (:meth:`do_try`)."""
        if self.handler is None:
            raise UnsupportedSource("raising site outside try/except")
        stmts, alias, trapped = self.handler
        st.vars[alias] = _Mark("trapval", site)
        for tag, s in self.handler_outcomes(stmts, alias, st):
            if tag != "fall":
                raise UnsupportedSource("trap handler transfers control")
            trapped.append(s)

    def handler_outcomes(self, stmts, alias, st: CState):
        """Run an ``except`` body; Python unbinds its *alias* as it
        ends."""
        out = self.exec_stmts(stmts, [st])
        if alias:
            for _tag, s in out:
                s.vars.pop(alias, None)
        return out

    # -- statements ------------------------------------------------------
    def exec_stmts(self, stmts, states):
        """Run *states* through *stmts*; returns (tag, state) outcomes."""
        out = []
        frontier = list(states)
        for stmt in stmts:
            if not frontier:
                break
            nxt = []
            for st in frontier:
                for tag, s in self.exec_stmt(stmt, st):
                    (nxt if tag == "fall" else out).append(
                        s if tag == "fall" else (tag, s))
            frontier = nxt
        out.extend(("fall", s) for s in frontier)
        return out

    def exec_stmt(self, stmt, st: CState):
        if isinstance(stmt, ast.Assign):
            self.do_assign(stmt, st)
            return [("fall", st)]
        if isinstance(stmt, ast.AugAssign):
            self.do_augassign(stmt, st)
            return [("fall", st)]
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, st)
            return [("fall", st)]
        if isinstance(stmt, ast.Return):
            self.do_return(stmt, st)
            return []
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                raise UnsupportedSource("bare raise")
            v = self.eval(stmt.exc, st)
            if not (isinstance(v, _Mark) and v.tag == "trapval"):
                raise UnsupportedSource("raise of non-TrapException")
            self.route_trap(st, v.arg)
            return []
        if isinstance(stmt, ast.Break):
            return [("break", st)]
        if isinstance(stmt, ast.Continue):
            return [("continue", st)]
        if isinstance(stmt, ast.If):
            return self.do_if(stmt, st)
        if isinstance(stmt, ast.While):
            return self.do_while(stmt, st)
        if isinstance(stmt, ast.Try):
            return self.do_try(stmt, st)
        raise UnsupportedSource(f"statement {type(stmt).__name__}")

    def do_assign(self, stmt: ast.Assign, st: CState) -> None:
        if len(stmt.targets) != 1:
            raise UnsupportedSource("multiple assignment targets")
        target = stmt.targets[0]
        if isinstance(target, ast.Tuple):
            v = self.eval(stmt.value, st)
            if not (isinstance(v, _Mark) and v.tag == "multi"):
                raise UnsupportedSource("tuple-unpack of non-call")
            names = target.elts
            if len(names) != len(v.arg) or not all(
                    isinstance(n, ast.Name) for n in names):
                raise UnsupportedSource("tuple-unpack arity")
            for n, val in zip(names, v.arg):
                st.vars[n.id] = val
            return
        v = self.eval(stmt.value, st)
        if isinstance(v, _Mark) and v.tag == "multi":
            raise UnsupportedSource("multi-value result not unpacked")
        if isinstance(target, ast.Name):
            st.vars[target.id] = v
            return
        if isinstance(target, ast.Subscript):
            base = self.eval(target.value, st)
            idx = self.eval(target.slice, st)
            if (isinstance(base, _Mark) and base.tag == "regs"
                    and isinstance(idx, int) and 1 <= idx < 32):
                st.regfile[idx] = v
                return
            if (isinstance(base, _Mark) and base.tag == "mrlist"
                    and isinstance(idx, int) and 0 <= idx < 32):
                st.alloc(("mrw", idx, v))
                return
            raise UnsupportedSource("subscript store on unexpected object")
        if isinstance(target, ast.Attribute):
            obj = self.eval(target.value, st)
            if isinstance(obj, _Mark):
                if obj.tag == "timer" and target.attr == "cycles":
                    st.tc = v
                    return
                if obj.tag == "core" and target.attr == "_timer_cycles":
                    st.alloc(("latch_tc", v))
                    return
                if obj.tag == "core" and target.attr == "instret":
                    st.alloc(("latch_instret", v))
                    return
            raise UnsupportedSource(f"attribute store .{target.attr}")
        raise UnsupportedSource("assignment target")

    def do_augassign(self, stmt: ast.AugAssign, st: CState) -> None:
        target = stmt.target
        rhs = self.eval(stmt.value, st)
        if isinstance(target, ast.Name):
            cur = self.load_name(target.id, st)
            st.vars[target.id] = self.binop(stmt.op, cur, rhs)
            return
        if isinstance(target, ast.Attribute):
            obj = self.eval(target.value, st)
            if (target.attr == "cycles" and obj == _TIMER):
                st.tc = self.binop(stmt.op, st.tc, rhs)
                return
            if (target.attr == "hits" and obj == _ISTATS
                    and isinstance(stmt.op, ast.Add)):
                st.alloc(("ihit", rhs))
                return
        raise UnsupportedSource("augmented-assignment target")

    def do_return(self, stmt: ast.Return, st: CState) -> None:
        if not (isinstance(stmt.value, ast.Tuple)
                and len(stmt.value.elts) == 7):
            raise UnsupportedSource("return is not the 7-tuple protocol")
        status, next_pc, retired, loops, trap, left, hz = (
            self.eval(e, st) for e in stmt.value.elts)
        if status not in (0, 1, 2):
            raise UnsupportedSource(f"return status {status!r}")
        kind = ("ret0", "abort", "trap")[status]
        site = None
        # An unraised trap: its "raise" is the return itself.
        if kind == "trap" and trap == _ECALL:
            trap = _Mark("trapval", st.alloc(("raise", int(Cause.ECALL), 0)))
        elif (kind == "trap" and isinstance(trap, _Mark)
              and trap.tag == "icept"):
            trap = _Mark("trapval", st.alloc(
                ("raise", int(Cause.INTERCEPT), trap.arg)))
        if kind == "trap":
            if not (isinstance(trap, _Mark)
                    and trap.tag in ("trapval", "metalerr")):
                raise UnsupportedSource("status-2 return without the "
                                        "caught exception")
            site = trap.arg
        elif trap is not None:
            raise UnsupportedSource(f"status-{status} return carries an "
                                    "exception")
        if any(isinstance(v, _Mark) for v in (next_pc, retired, loops, left,
                                              hz)):
            raise UnsupportedSource("opaque object in return tuple")
        self.exits.append(Exit(
            kind=kind, path=tuple(st.path), events=tuple(st.events),
            retired=retired, loops=loops, tc=st.tc,
            regfile=self.norm_regfile(st), next_pc=next_pc, trap=site,
            member=self.member, left=left, hz=hz))

    # -- control flow ----------------------------------------------------
    def do_if(self, stmt: ast.If, st: CState):
        cond = S.truth(self.eval(stmt.test, st))
        if cond is True:
            return self.exec_stmts(stmt.body, [st])
        if cond is False:
            return self.exec_stmts(stmt.orelse, [st])
        base_events = len(st.events)
        t_st = st.fork(cond)
        f_st = st.fork(S.not_(cond))
        t_out = self.exec_stmts(stmt.body, [t_st])
        f_out = (self.exec_stmts(stmt.orelse, [f_st]) if stmt.orelse
                 else [("fall", f_st)])
        t_falls = [s for tag, s in t_out if tag == "fall"]
        f_falls = [s for tag, s in f_out if tag == "fall"]
        others = [o for o in t_out + f_out if o[0] != "fall"]
        if (len(t_falls) == 1 and len(f_falls) == 1
                and len(t_falls[0].events) == base_events
                and len(f_falls[0].events) == base_events
                and not _assigns_name(stmt, "next_pc")
                and not _transfers(stmt)):
            return others + [("fall", self.merge(cond, st,
                                                 t_falls[0], f_falls[0]))]
        return others + [("fall", s) for s in t_falls + f_falls]

    def merge(self, cond, pre: CState, a: CState, b: CState) -> CState:
        if a.counter != b.counter or a.events != b.events:
            raise UnsupportedSource("events diverge across a data join")
        m = a.fork()
        m.path = list(pre.path)

        def unify(va, vb, what):
            if va is vb or va == vb:
                return va
            if isinstance(va, _Mark) or isinstance(vb, _Mark):
                raise UnsupportedSource(f"objects diverge at join: {what}")
            return S.ite(cond, va, vb)

        m.vars = {}
        for name in set(a.vars) | set(b.vars):
            if name in a.vars and name in b.vars:
                m.vars[name] = unify(a.vars[name], b.vars[name], name)
            # else: defined on one side only; reads after the join fail
        m.regfile = {}
        for n in set(a.regfile) | set(b.regfile):
            m.regfile[n] = unify(self.rf_get(a, n), self.rf_get(b, n),
                                 f"x{n}")
        m.tc = unify(a.tc, b.tc, "timer.cycles")
        m.valid = [unify(va, vb, "valid")
                   for va, vb in zip(a.valid, b.valid)]
        m.horizon = unify(a.horizon, b.horizon, "bus.horizon")
        return m

    def do_while(self, stmt: ast.While, st: CState):
        """A bare ``while True``: a loop when its body holds a
        ``continue``; else every path through it leaves at a ``break``,
        and the body runs once."""
        if not (isinstance(stmt.test, ast.Constant)
                and stmt.test.value is True) or stmt.orelse:
            raise UnsupportedSource("loop is not a bare `while True`")
        if self.looped:
            raise UnsupportedSource("nested loop")
        if any(isinstance(sub, ast.Continue) for sub in ast.walk(stmt)):
            self.looped = True
            self.generalize(stmt, st)
        res = []
        for tag, s in self.exec_stmts(stmt.body, [st]):
            if tag == "continue":
                self.loop_exit(s)
            elif tag == "break":
                res.append(("fall", s))
            else:
                raise UnsupportedSource("loop body falls through")
        return res

    def generalize(self, stmt: ast.While, st: CState) -> None:
        """Replace the loop-carried locals by loop-head symbols."""
        assigned = _assigned_names(stmt.body)
        # The member index the edges set: carried, never generalised
        # (each evaluation enters one member).
        self.carries_m = "m" in assigned
        for name in sorted(assigned & set(st.vars) - {"m"}):
            if _GENERAL.match(name):
                self.entry[f"L.{name}"] = st.vars[name]
                st.vars[name] = S.sym(f"L.{name}")
            else:
                self.invariants[name] = st.vars[name]
        if (_assigns_attr(stmt.body, "cycles")
                or _has_call(stmt.body, frozenset(
                    ("note", "note_run", "note_op")))):
            self.entry["L.tc"] = st.tc
            st.tc = S.sym("L.tc")
        if _has_call(stmt.body, frozenset(("sync", "write_mem", "cross"))):
            for k, v in enumerate(st.valid):
                name = f"L.{valid_name(k)}"
                self.entry[name] = v
                st.valid[k] = S.sym(name)
            # Every horizon exit reads the value its own access left.
            st.horizon = S.sym("L.horizon")

    def loop_exit(self, st: CState) -> None:
        for name, head in self.invariants.items():
            if name in st.vars and st.vars[name] != head:
                raise UnsupportedSource(
                    f"loop-carried local {name!r} is not restored to its "
                    "entry value on the back edge")
        carried = []
        valid = {valid_name(k): v for k, v in enumerate(st.valid)}
        for gname in self.entry:
            name = gname[2:]
            if name in ("tc", "retired", "loops"):
                continue
            if name in valid:
                carried.append((name, valid[name]))
            else:
                carried.append((name, st.vars[name]))
        if self.carries_m:
            carried.append(("m", st.vars["m"]))
        self.exits.append(Exit(
            kind="loop", path=tuple(st.path), events=tuple(st.events),
            retired=st.vars["retired"], loops=st.vars["loops"], tc=st.tc,
            regfile=self.norm_regfile(st), carried=tuple(sorted(carried)),
            member=self.member))

    def do_try(self, stmt: ast.Try, st: CState):
        if (len(stmt.handlers) != 1 or stmt.orelse or stmt.finalbody):
            raise UnsupportedSource("try shape")
        handler = stmt.handlers[0]
        if isinstance(handler.type, ast.Name) \
                and handler.type.id == "MetalError":
            return self.do_fallible(stmt, st)
        if self.handler is not None:
            raise UnsupportedSource("nested try")
        if not (isinstance(handler.type, ast.Name)
                and handler.type.id == "TrapException" and handler.name):
            raise UnsupportedSource("handler is not `except TrapException"
                                    " as ...`")
        trapped = []
        self.handler = (handler.body, handler.name, trapped)
        out = self.exec_stmts(stmt.body, [st])
        self.handler = None
        return out + [("fall", s) for s in trapped]

    def do_fallible(self, stmt: ast.Try, st: CState):
        """``try: next_pc = <unit call> except MetalError [as e]: ...``:
        the call's event, then the handler, from the state the call
        left, with *e* bound to the error the call raised."""
        handler = stmt.handlers[0]
        body = stmt.body
        if not (len(body) == 1 and isinstance(body[0], ast.Assign)
                and isinstance(body[0].value, ast.Call)):
            raise UnsupportedSource("fallible try is not one call")
        self.fallible = None
        value = self.eval(body[0].value, st)
        site, self.fallible = self.fallible, None
        if site is None:
            raise UnsupportedSource("fallible try around a call that "
                                    "cannot raise MetalError")
        err = st.fork()
        if handler.name:
            err.vars[handler.name] = _Mark("metalerr", site)
        out = self.handler_outcomes(handler.body, handler.name, err)
        if any(tag == "fall" for tag, _s in out):
            raise UnsupportedSource("MetalError handler falls through")
        target = body[0].targets
        if len(target) != 1 or not isinstance(target[0], ast.Name):
            raise UnsupportedSource("fallible try target")
        st.vars[target[0].id] = value
        return out + [("fall", st)]


def candidate_summary(source: str, ns, members: int = 1) -> Summary:
    """Symbolically evaluate a ``__jit_source__`` into a Summary.

    *ns* is the compiled function's exec namespace, which holds the
    ``note_run`` schedules and the member blocks; *members* is the
    region's member count.  The function is evaluated once per member,
    entered with ``m`` bound to its index.  Raises
    :class:`UnsupportedSource` when the source leaves the MJIT grammar
    (:mod:`repro.verify.translate` turns that into a finding).
    """
    tree = ast.parse(source)
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        raise UnsupportedSource("source is not a single function")
    fn = tree.body[0]
    if fn.name != "_jit":
        raise UnsupportedSource(f"function name {fn.name!r}")
    a = fn.args
    names = tuple(arg.arg for arg in a.args)
    if (names != PARAMS or a.posonlyargs or a.kwonlyargs or a.vararg
            or a.kwarg or a.defaults):
        raise UnsupportedSource(
            f"calling convention: params {names} != {PARAMS}")
    exits = []
    entry = None
    looped = False
    for member in range(members):
        ev = _Ev(ns, member)
        st = CState(members)
        st.vars = {
            "core": _CORE, "m": member, "timer": _TIMER, "sync": _SYNC,
            "instret_base": S.sym("instret_base"),
            "budget": S.sym("budget"), "stop": S.sym("stop"),
            "hz": S.sym("hz"), "quantum": S.sym("quantum"),
            "cross": S.sym("cross"),
            "execute": _EXEC, "TrapException": _TRAPCTOR,
            "CAUSE_BUS_ERROR": int(Cause.BUS_ERROR),
            "CAUSE_ILLEGAL": int(Cause.ILLEGAL_INSTRUCTION),
            "_upk": _UPK, "_pk": _PK,
        }
        leftover = ev.exec_stmts(fn.body, [st])
        if leftover:
            raise UnsupportedSource("control falls off the end of the "
                                    "function")
        if entry is not None and ev.entry != entry:
            raise UnsupportedSource("loop entry differs between members")
        entry = ev.entry
        looped = ev.looped
        exits.extend(ev.exits)
    return Summary(looped=looped, exits=exits, entry=entry or {})
