"""MSYNTH: profile-guided auto-synthesis of application-specific mroutines.

The paper's promise is that Metal makes processor features cheap enough
for *application developers* — MSYNTH closes that loop by generating
features automatically.  The pipeline (``python -m repro synth``):

1. **mine** (:mod:`repro.synth.mine`) — profile the guest under MPROF,
   decode the hot superblocks back out of guest RAM, and select fusable
   regions (counted loops and straight-line plain-instruction runs),
   ranked by an ``instructions_saved x hotness`` score;
2. **generate** (:mod:`repro.synth.generate`) — emit each candidate as
   a fused mcode mroutine (with an MRAM data segment recording its
   provenance and an optional invocation counter), register-allocated
   against the image's free mreg pool, and append it to the live
   :class:`~repro.metal.loader.MetalImage` through the loader's
   append path (MAS re-verifies; the tcache drops stale mram blocks);
3. **rewrite** (:mod:`repro.synth.rewrite`) — patch the guest program
   to invoke the new mroutine via ``menter`` (length-preserving inline
   patch, ``jal`` trampoline fall-back);
4. **report** (:mod:`repro.synth.pipeline`) — measure baseline vs
   rewritten (architectural cycles), check the architectural digest is
   bit-identical, and price each candidate with a Table-2-style
   cells/wires delta from :mod:`repro.synthesis`.

Everything here is host-side tooling: the synthesized image is an
ordinary mroutine image, indistinguishable from a hand-written one to
MAS, MCONF, MVTV and the engines.
"""

from repro.synth.mine import Candidate, mine_candidates
from repro.synth.generate import generate_routine
from repro.synth.rewrite import Patch, rewrite_program
from repro.synth.pipeline import synthesize_source, synthesize_workload

__all__ = [
    "Candidate", "mine_candidates", "generate_routine", "Patch",
    "rewrite_program", "synthesize_source", "synthesize_workload",
]
