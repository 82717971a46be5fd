"""MVTV pass 2 — host-invariant static lints.

Two whole-machine invariants live in the *host* Python, outside anything
the translation validator or the MAS passes can see, and regress
silently when a new field or mutation site is added:

**Snapshot completeness.**  :func:`repro.machine.snapshot.take_snapshot`
must capture every piece of mutable architectural state, or
snapshot/restore (A/B experiments, MFI fault recovery) silently leaks
state across a restore.  The lint parses the ``__init__`` of every
state-bearing class, maps each ``self.X`` field to its canonical
instance path (``machine.core.pc``, ``machine.core.metal.mram.code``,
…) and checks the path is read somewhere in ``take_snapshot`` — either
directly, through a local alias (``core = machine.core``), through a
``getattr`` over a literal name tuple (the CSR loop), or via the
class's own snapshot method for classes captured wholesale.  Fields
that are deliberately *not* architectural state (device wiring, perf
counters, immutable configuration) are allowlisted with a reason.

**Eviction completeness.**  Code-bearing state must never change
without telling the translation cache:

* any mutation of an MRAM ``.code`` buffer must bump ``code_version``
  in the same function (the tcache's lazy invalidation token);
* any :class:`~repro.mem.memory.PhysicalMemory` method that mutates
  ``self.data`` must fire ``self.write_hook`` (the tcache's SMC
  eviction feed), and a RAM write in ``machine/snapshot.py``, outside
  the class, must flush the tcache (a snapshot restore goes through
  ``PhysicalMemory.load_pages``, whose writes fire the hook, so a
  correct restore has no such write);
* any function that marks a translation block ``valid = False`` must
  also drop the region it runs in — ``jit_fn = None`` and ``region =
  None`` on every member of ``block.region`` — so a stale compiled
  function can never be re-entered, through a held reference or from
  another member of its region; and it must evict the block's prefix
  blocks — ``_evict`` on each of ``block.prefixes`` — whose compiled
  code runs the same entries;
* any loader path that writes MRAM code into an *existing* image (the
  MSYNTH append path, as opposed to the boot path that constructs a
  fresh ``MetalImage``) must re-attach analysis results and advance the
  image's code high-water mark in the same function — otherwise the
  profiler's loop attribution reads a stale ``image.analysis`` and the
  next append allocates over live mcode from a stale
  ``code_used_bytes``.

Both lints take ``override_sources`` mapping a repo-relative path
(under ``src/repro``) to replacement text — the mutation tests use it
to inject a seeded bug without touching the tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.verify.model import Finding

PASS_SNAPSHOT = "snapshot"
PASS_EVICTION = "eviction"

_SRC_ROOT = Path(__file__).resolve().parents[1]


def _source(relpath: str, override_sources=None) -> str:
    if override_sources and relpath in override_sources:
        return override_sources[relpath]
    return (_SRC_ROOT / relpath).read_text()


# ---------------------------------------------------------------------------
# snapshot completeness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassSpec:
    """One state-bearing class and how ``take_snapshot`` reaches it."""

    path: str                 # source file, relative to src/repro
    cls: str                  # class name
    root: str                 # canonical instance path of one instance
    #: Method on the class whose body captures its fields wholesale
    #: (``take_snapshot`` calls it instead of reading fields directly).
    via_method: str = None
    #: field -> why it is deliberately not part of the snapshot.
    allow: dict = field(default_factory=dict)


_DEVICES = "device-internal state is deliberately outside snapshots"
_WIRING = "host-side wiring, reconstructed by the builder"
_CONFIG = "immutable configuration"
_COUNTER = "performance counter, not architectural state"

SNAPSHOT_SPECS = (
    ClassSpec("machine/machine.py", "Machine", "machine", allow={
        "sim": "the simulation engine itself, not machine state",
        "bus": _WIRING,
        "symbols": _CONFIG, "extra_symbols": _CONFIG,
        "console": _DEVICES, "timer": _DEVICES, "nic": _DEVICES,
        "blockdev": _DEVICES, "irq": _DEVICES,
        "metal_image": "static image description; MRAM holds the live copy",
        "name": _CONFIG,
    }),
    ClassSpec("cpu/core.py", "CpuCore", "machine.core", allow={
        "bus": _WIRING,
        "icache": "timing-model state, not architectural",
        "dcache": "timing-model state, not architectural",
        "irq": _DEVICES,
        "timing": _CONFIG,
    }),
    ClassSpec("cpu/csr.py", "CsrFile", "machine.core.csrs"),
    ClassSpec("mmu/tlb.py", "Tlb", "machine.core.tlb", allow={
        "capacity": _CONFIG,
        "hits": _COUNTER, "misses": _COUNTER,
        "protection_faults": _COUNTER, "key_faults": _COUNTER,
    }),
    ClassSpec("metal/unit.py", "MetalUnit", "machine.core.metal", allow={
        "image": "static load-time image; live state is mram/mregs",
        "stats": _COUNTER,
    }),
    ClassSpec("metal/mram.py", "Mram", "machine.core.metal.mram", allow={
        "code_bytes": _CONFIG, "data_bytes": _CONFIG,
        "code_version": ("monotonic invalidation token; restore bumps it "
                         "forward instead of rewinding it"),
    }),
    ClassSpec("metal/mregs.py", "MRegFile", "machine.core.metal.mregs",
              via_method="snapshot"),
    ClassSpec("metal/delivery.py", "DeliveryTable",
              "machine.core.metal.delivery", via_method="snapshot_state",
              allow={"_irq": _WIRING, "_unit": _WIRING}),
    ClassSpec("metal/intercept.py", "InterceptTable",
              "machine.core.metal.intercept", via_method="snapshot_rules",
              allow={
                  "slots": _CONFIG,
                  "hits": _COUNTER,
                  "signature": ("derived from the rules; restore_rules "
                                "recomputes it"),
              }),
)

SNAPSHOT_MODULE = "machine/snapshot.py"
SNAPSHOT_FN = "take_snapshot"


def _find_def(tree: ast.Module, name: str, kind=ast.FunctionDef):
    for node in tree.body:
        if isinstance(node, kind) and node.name == name:
            return node
    return None


def _resolve_path(node, aliases):
    """Dotted path of *node* if it is rooted in a known alias."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return ".".join([aliases[node.id]] + list(reversed(parts)))
    return None


def _comp_const_vars(fn) -> dict:
    """Comprehension variables iterating a literal string tuple/list."""
    out = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.comprehension):
            if (isinstance(node.target, ast.Name)
                    and isinstance(node.iter, (ast.Tuple, ast.List))
                    and all(isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                            for e in node.iter.elts)):
                out[node.target.id] = [e.value for e in node.iter.elts]
    return out


def _captured_paths(fn) -> set:
    """Every instance path ``take_snapshot`` reads, aliases resolved."""
    root = fn.args.args[0].arg
    aliases = {root: root}

    def getattr_path(call, names):
        if not (isinstance(call.func, ast.Name) and call.func.id == "getattr"
                and len(call.args) >= 2):
            return []
        base = _resolve_path(call.args[0], aliases)
        if base is None:
            return []
        attr = call.args[1]
        if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
            return [f"{base}.{attr.value}"]
        if isinstance(attr, ast.Name) and attr.id in names:
            return [f"{base}.{n}" for n in names[attr.id]]
        return []

    # First sweep: local aliases (in statement order, which ast.walk
    # preserves well enough for straight-line alias definitions).
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                path = _resolve_path(node.value, aliases)
                if path is None and isinstance(node.value, ast.Call):
                    hits = getattr_path(node.value, {})
                    path = hits[0] if hits else None
                if path is not None:
                    aliases[target.id] = path

    names = _comp_const_vars(fn)
    captured = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            path = _resolve_path(node, aliases)
            if path is not None:
                captured.add(path)
        elif isinstance(node, ast.Call):
            captured.update(getattr_path(node, names))
    return captured


def _init_fields(cls_node) -> list:
    """``self.X`` assignment targets in ``__init__``, in order."""
    init = None
    for item in cls_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            init = item
            break
    if init is None:
        return []
    fields = []
    for node in ast.walk(init):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for t in targets:
            if (isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"
                    and t.attr not in fields):
                fields.append(t.attr)
    return fields


def _method_self_reads(cls_node, method: str) -> set:
    for item in cls_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == method:
            return {
                node.attr for node in ast.walk(item)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
    return set()


def check_snapshot_completeness(override_sources=None) -> list:
    """Every mutable field of every state-bearing class must be captured
    by ``take_snapshot`` (or allowlisted with a reason)."""
    findings = []
    snap_tree = ast.parse(_source(SNAPSHOT_MODULE, override_sources))
    snap_fn = _find_def(snap_tree, SNAPSHOT_FN)
    if snap_fn is None:
        return [Finding(
            pass_name=PASS_SNAPSHOT, where=SNAPSHOT_MODULE,
            message=f"{SNAPSHOT_FN}() not found",
        )]
    captured = _captured_paths(snap_fn)

    for spec in SNAPSHOT_SPECS:
        tree = ast.parse(_source(spec.path, override_sources))
        cls_node = _find_def(tree, spec.cls, ast.ClassDef)
        if cls_node is None:
            findings.append(Finding(
                pass_name=PASS_SNAPSHOT, where=spec.path,
                message=f"class {spec.cls} not found",
            ))
            continue
        via = (_method_self_reads(cls_node, spec.via_method)
               if spec.via_method else set())
        for name in _init_fields(cls_node):
            if name in spec.allow:
                continue
            prefix = f"{spec.root}.{name}"
            if any(p == prefix or p.startswith(prefix + ".")
                   for p in captured):
                continue
            if name in via:
                continue
            how = (f"{SNAPSHOT_FN}() nor {spec.cls}.{spec.via_method}()"
                   if spec.via_method else f"{SNAPSHOT_FN}()")
            findings.append(Finding(
                pass_name=PASS_SNAPSHOT,
                where=f"{spec.path}:{spec.cls}.{name}",
                message=(f"mutable field {name!r} assigned in "
                         f"{spec.cls}.__init__ is not captured by {how} "
                         f"and not allowlisted — restore would leak it"),
                detail=f"expected a read of {prefix}",
            ))
    return findings


# ---------------------------------------------------------------------------
# eviction completeness
# ---------------------------------------------------------------------------

#: Files whose functions may mutate MRAM code buffers.
CODE_MUTATION_FILES = ("metal/mram.py", "machine/snapshot.py")
#: File holding PhysicalMemory (guest RAM with the SMC write hook).
RAM_FILE = "mem/memory.py"
RAM_CLASS = "PhysicalMemory"
#: Files that invalidate translation blocks.
BLOCK_FILES = ("cpu/tcache.py",)
#: File holding the mroutine loader (boot build + post-boot append).
LOADER_FILE = "metal/loader.py"


def _attr_chain_ends(node, suffix) -> bool:
    """True if *node* is an attribute chain ending in *suffix* (a tuple
    of trailing attribute names, innermost last)."""
    for attr in reversed(suffix):
        if not (isinstance(node, ast.Attribute) and node.attr == attr):
            return False
        node = node.value
    return True


def _mutation_targets(node):
    """Attribute chains this statement mutates in place (subscript/slice
    stores and ``struct.pack_into`` calls)."""
    out = []
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    for t in targets:
        if isinstance(t, ast.Subscript):
            out.append(t.value)
    if isinstance(node, ast.Call):
        fname = (node.func.attr if isinstance(node.func, ast.Attribute)
                 else node.func.id if isinstance(node.func, ast.Name)
                 else None)
        if fname == "pack_into" and len(node.args) >= 2:
            out.append(node.args[1])
    return out


def _functions(tree):
    """Every function/method in *tree* with a qualified display name."""
    out = []

    def visit(node, prefix):
        for item in getattr(node, "body", []):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{prefix}{item.name}", item))
                visit(item, f"{prefix}{item.name}.")
            elif isinstance(item, ast.ClassDef):
                visit(item, f"{prefix}{item.name}.")

    visit(tree, "")
    return out


def _bumps_code_version(fn) -> bool:
    for node in ast.walk(fn):
        target = None
        if isinstance(node, ast.AugAssign):
            target = node.target
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if isinstance(target, ast.Attribute) and target.attr == "code_version":
            return True
    return False


def _mentions_flush(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and "flush" in node.attr:
            return True
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "flush" in node.value):
            return True
    return False


def check_eviction_completeness(override_sources=None) -> list:
    findings = []

    # Rule 1: MRAM code mutations bump code_version in the same function.
    for relpath in CODE_MUTATION_FILES:
        tree = ast.parse(_source(relpath, override_sources))
        for qualname, fn in _functions(tree):
            code_sites = [
                node for node in ast.walk(fn)
                for target in _mutation_targets(node)
                if _attr_chain_ends(target, ("code",))
            ]
            if code_sites and not _bumps_code_version(fn):
                findings.append(Finding(
                    pass_name=PASS_EVICTION,
                    where=f"{relpath}:{qualname}",
                    message=("mutates an MRAM .code buffer without bumping "
                             "code_version — the tcache would keep "
                             "dispatching stale predecoded blocks"),
                    detail=f"line {code_sites[0].lineno}",
                ))

    # Rule 2: PhysicalMemory.data mutations fire the write hook.
    tree = ast.parse(_source(RAM_FILE, override_sources))
    cls_node = _find_def(tree, RAM_CLASS, ast.ClassDef)
    if cls_node is None:
        findings.append(Finding(
            pass_name=PASS_EVICTION, where=RAM_FILE,
            message=f"class {RAM_CLASS} not found",
        ))
    else:
        for item in cls_node.body:
            if not isinstance(item, ast.FunctionDef) or item.name == "__init__":
                continue
            mutates = [
                node for node in ast.walk(item)
                for target in _mutation_targets(node)
                if _attr_chain_ends(target, ("data",))
            ]
            if not mutates:
                continue
            hook_aliases = {
                t.id
                for node in ast.walk(item) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)
                if _attr_chain_ends(node.value, ("write_hook",))
            }
            fires = any(
                isinstance(node, ast.Call)
                and (_attr_chain_ends(node.func, ("write_hook",))
                     or (isinstance(node.func, ast.Name)
                         and node.func.id in hook_aliases))
                for node in ast.walk(item)
            )
            if not fires:
                findings.append(Finding(
                    pass_name=PASS_EVICTION,
                    where=f"{RAM_FILE}:{RAM_CLASS}.{item.name}",
                    message=("mutates self.data without firing write_hook — "
                             "the tcache would miss self-modifying code "
                             "through this path"),
                    detail=f"line {mutates[0].lineno}",
                ))

    # Rule 2b: a RAM write in snapshot.py, outside the class, bypasses
    # the write hook, so it must flush the tcache.  Restores go through
    # PhysicalMemory.load_pages instead and leave nothing to check.
    for relpath in ("machine/snapshot.py",):
        tree = ast.parse(_source(relpath, override_sources))
        for qualname, fn in _functions(tree):
            ram_sites = [
                node for node in ast.walk(fn)
                for target in _mutation_targets(node)
                if _attr_chain_ends(target, ("ram", "data"))
            ]
            if ram_sites and not _mentions_flush(fn):
                findings.append(Finding(
                    pass_name=PASS_EVICTION,
                    where=f"{relpath}:{qualname}",
                    message=("replaces guest RAM wholesale (bypassing the "
                             "bus write hooks) without flushing the tcache"),
                    detail=f"line {ram_sites[0].lineno}",
                ))

    # Rule 4: loader paths that append code to an existing image must
    # re-attach analysis facts and advance the code high-water mark in
    # the same function.  The boot path is structurally exempt: it
    # constructs a fresh MetalImage, whose constructor takes the
    # analysis dict wholesale.
    tree = ast.parse(_source(LOADER_FILE, override_sources))
    for qualname, fn in _functions(tree):
        write_sites = [
            node for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "write_code"
        ]
        if not write_sites:
            continue
        builds_fresh = any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "MetalImage"
            for node in ast.walk(fn)
        )
        if builds_fresh:
            continue
        touches_analysis = any(
            isinstance(node, ast.Attribute) and node.attr == "analysis"
            for node in ast.walk(fn)
        )
        advances_mark = any(
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Attribute)
                    and t.attr == "code_used_bytes" for t in node.targets)
            for node in ast.walk(fn)
        )
        if not (touches_analysis and advances_mark):
            missing = []
            if not touches_analysis:
                missing.append("analysis re-attachment")
            if not advances_mark:
                missing.append("code_used_bytes advance")
            findings.append(Finding(
                pass_name=PASS_EVICTION,
                where=f"{LOADER_FILE}:{qualname}",
                message=("appends MRAM code to an existing image without "
                         + " or ".join(missing)
                         + " — the profiler's loop attribution reads "
                         "image.analysis, and the next append allocates "
                         "from code_used_bytes"),
                detail=f"line {write_sites[0].lineno}",
            ))

    # Rule 3: invalidating a block drops the region it runs in from
    # every member: a loop over the block's ``region`` severs each
    # member's ``jit_fn`` and ``region``; and a loop over its
    # ``prefixes`` evicts each.
    for relpath in BLOCK_FILES:
        tree = ast.parse(_source(relpath, override_sources))
        for qualname, fn in _functions(tree):
            invalidated = []   # (base dump, lineno)
            dropped = set()    # base dumps whose region loop drops both
            evicted = set()    # base dumps whose prefix loop evicts each
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if (isinstance(t, ast.Attribute)
                                and t.attr == "valid"
                                and isinstance(node.value, ast.Constant)
                                and node.value.value is False):
                            invalidated.append((ast.dump(t.value),
                                                node.lineno))
                elif (isinstance(node, ast.For)
                      and isinstance(node.target, ast.Name)):
                    severed = {
                        t.attr
                        for sub in node.body if isinstance(sub, ast.Assign)
                        for t in sub.targets
                        if isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == node.target.id
                        and isinstance(sub.value, ast.Constant)
                        and sub.value.value is None
                    }
                    if {"jit_fn", "region"} <= severed:
                        dropped.update(
                            ast.dump(sub.value) for sub in ast.walk(node.iter)
                            if isinstance(sub, ast.Attribute)
                            and sub.attr == "region")
                    if any(isinstance(sub, ast.Call)
                           and _attr_chain_ends(sub.func, ("_evict",))
                           and any(isinstance(arg, ast.Name)
                                   and arg.id == node.target.id
                                   for arg in sub.args)
                           for stmt in node.body for sub in ast.walk(stmt)):
                        evicted.update(
                            ast.dump(sub.value) for sub in ast.walk(node.iter)
                            if isinstance(sub, ast.Attribute)
                            and sub.attr == "prefixes")
            for base, lineno in invalidated:
                if base not in dropped:
                    findings.append(Finding(
                        pass_name=PASS_EVICTION,
                        where=f"{relpath}:{qualname}",
                        message=("sets a block invalid without dropping "
                                 "its region (jit_fn = None and region = "
                                 "None on every member of block.region) in "
                                 "the same function — another member or a "
                                 "held reference could re-enter stale "
                                 "compiled code"),
                        detail=f"line {lineno}",
                    ))
                if base not in evicted:
                    findings.append(Finding(
                        pass_name=PASS_EVICTION,
                        where=f"{relpath}:{qualname}",
                        message=("sets a block invalid without evicting "
                                 "its prefixes (_evict on each of "
                                 "block.prefixes) in the same function — "
                                 "a prefix's compiled code would run the "
                                 "stale entries"),
                        detail=f"line {lineno}",
                    ))
    return findings


def run_host_lints(override_sources=None) -> list:
    """Both host lints; empty on a healthy tree."""
    return (check_snapshot_completeness(override_sources)
            + check_eviction_completeness(override_sources))
