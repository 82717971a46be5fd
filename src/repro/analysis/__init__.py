"""MAS — the Mcode Analysis Suite.

Static analysis for mroutines, built in layers:

* :mod:`repro.analysis.cfg` — control-flow graphs over decoded mroutine
  words: basic blocks, successor edges, reachability, back edges.
* :mod:`repro.analysis.dataflow` — a small worklist framework: forward
  analyses over a CFG with per-edge transfer functions and widening.
* :mod:`repro.analysis.domain` — the interval abstract domain used to
  bound computed values (and therefore computed ``mld``/``mst``
  addresses) without running the code.
* :mod:`repro.analysis.passes` — the verification passes: structural
  checks (decode, forbidden instructions, escaping branches),
  exit-on-all-paths, MReg clobber/liveness, interval MRAM bounds,
  cycle-budget bounding and side-effect classification.
* :mod:`repro.analysis.facts` — the per-routine analysis facts
  (:class:`RoutineFacts`) the loader attaches to a
  :class:`~repro.metal.loader.MetalImage`.
* :mod:`repro.analysis.lint` — ``python -m repro lint``: rustc-style
  diagnostics over a single routine or every bundled mcode app.

:func:`analyze_routine` is the main entry point;
:func:`repro.metal.verifier.verify_mroutine` is a thin façade over it
that preserves the historical load-time verification surface.
"""

from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.analysis.dataflow import solve_forward
from repro.analysis.domain import Interval, IntervalEnv
from repro.analysis.facts import Purity, RoutineFacts
from repro.analysis.passes import (
    AnalysisConfig,
    AnalysisResult,
    Diagnostic,
    LINT_CONFIG,
    LOAD_CONFIG,
    analyze_routine,
    check_image_mregs,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "BasicBlock",
    "CFG",
    "Diagnostic",
    "Interval",
    "IntervalEnv",
    "LINT_CONFIG",
    "LOAD_CONFIG",
    "Purity",
    "RoutineFacts",
    "analyze_routine",
    "build_cfg",
    "check_image_mregs",
    "solve_forward",
]
