"""MVTV: static verification of the JIT tier and host invariants.

Two passes, exposed via ``python -m repro verify`` (see
``docs/VALIDATION.md``):

``translation``
    Per-region translation validation of MJIT output: a symbolic
    evaluator over the shared micro-op IR (:func:`repro.cpu.tcache.uop_ir`)
    builds a *reference summary* of every compiled region, member by
    member — register/pc/memory effects, cycle + instret accounting,
    the 0/1/2 abort/trap exit protocol, every edge's admission checks —
    and an ``ast``-based symbolic evaluator of the generated Python
    source builds the *candidate summary*.  The region is proven
    equivalent iff the two summaries are structurally identical after
    canonicalisation.  That includes the
    MRAM data-segment check (alignment and bound) at every compiled
    ``mld``/``mst``, so no separate audit of those accesses is needed.

``host``
    Host-invariant ``ast`` lints over the repro codebase itself:
    snapshot-completeness (every mutable field a state-bearing class
    assigns in ``__init__`` must be captured by
    :mod:`repro.machine.snapshot`) and eviction-completeness (every
    mutation site of code-bearing state must reach an invalidation).
"""

from repro.verify.model import Finding, Summary  # noqa: F401
from repro.verify.translate import validate_region  # noqa: F401
