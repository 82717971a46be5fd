"""MSYNTH tests: candidate mining safety rules, generated-routine
verification, the loader's append path, guest rewriting, end-to-end
digest parity + speedup, and the four-way lockstep differential with
synthesis enabled.

The load-bearing properties:

* the miner only fuses regions it can prove safe from the static image
  (plain instructions, no external entry into the interior, no ``jalr``
  anywhere) and ranks them as a pure function of the profile;
* generated routines pass MAS (``MRAM_ONLY``, or ``PURE`` without the
  counter) and the MCONF independent decode oracle;
* appending to a live image refreshes everything downstream — facts,
  proven data-access sites, the tcache's mram translations — and
  commits nothing on failure;
* a rewritten guest is bit-identical to baseline everywhere outside the
  patched bytes, across every execution variant MCONF locksteps.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro import build_metal_machine
from repro.asm import assemble
from repro.conformance.campaign import VARIANTS, machine_state
from repro.conformance.crosscheck import check_words
from repro.errors import MroutineLoadError
from repro.metal.mroutine import MRoutine
from repro.profile.sink import TraceAggregate
from repro.profile.workloads import WORKLOADS, workload_source
from repro.synth.generate import free_entry, free_mreg, generate_routine
from repro.synth.mine import mine_candidates
from repro.synth.pipeline import (
    architectural_digest, generated_routines, profile_aggregates,
    synthesize_workload,
)
from repro.synth.rewrite import rewrite_program

BASE = 0x1000

#: Counted loop with a 5-instruction plain body: one loop candidate.
LOOP_SRC = """
_start:
    addi t0, zero, 100
loop:
    addi t1, t1, 1
    xor  t2, t1, t0
    slli t3, t1, 2
    add  t4, t2, t3
    addi t0, t0, -1
    bnez t0, loop
    halt
"""

#: Straight-line plain prefix ended by a store: one run candidate.
RUN_SRC = """
_start:
    addi t1, zero, 7
    slli t2, t1, 4
    xor  t3, t2, t1
    add  t4, t3, t2
    or   t5, t4, t1
    sw   t5, 0(zero)
    halt
"""


def _agg(pc, hits=100, instrs=600):
    return TraceAggregate("mem", pc, hits, instrs, 0, instrs)


def _mine(source, aggs, **kwargs):
    program = assemble(source, base=BASE)
    words = program.words()
    entry_pc = program.symbols.get("_start", BASE)
    kwargs.setdefault("entry_pc", entry_pc)
    return words, mine_candidates(words, BASE, aggs, **kwargs)


class TestMiner:
    def test_loop_candidate_at_hot_head(self):
        words, cands = _mine(LOOP_SRC, [_agg(BASE + 4)])
        assert len(cands) == 1
        cand = cands[0]
        assert cand.kind == "loop"
        assert cand.head_pc == BASE + 4
        assert cand.length == 6                # 5-word body + back-branch
        assert cand.end_pc == BASE + 4 + 24

    def test_run_candidate_stops_at_store(self):
        words, cands = _mine(RUN_SRC, [_agg(BASE)])
        assert len(cands) == 1
        cand = cands[0]
        assert cand.kind == "run"
        assert cand.head_pc == BASE
        assert cand.length == 5                # sw not fusable

    def test_short_run_rejected(self):
        words, cands = _mine(RUN_SRC, [_agg(BASE)], min_run=6)
        assert cands == []

    def test_jalr_poisons_whole_program(self):
        src = LOOP_SRC.replace("    halt", "    jalr zero, 0(ra)\n    halt")
        _, cands = _mine(src, [_agg(BASE + 4)])
        assert cands == []

    def test_external_target_into_interior_rejected(self):
        # A branch elsewhere jumps into the loop body: fusing the whole
        # region would skip that entry path.
        src = """
_start:
    addi t0, zero, 10
    beq  zero, zero, mid
loop:
    addi t1, t1, 1
mid:
    addi t2, t2, 1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""
        _, cands = _mine(src, [_agg(BASE + 8)])
        assert cands == []

    def test_targeting_the_head_is_allowed(self):
        # The loop's own back-branch targets the head — that must not
        # disqualify the region (the patch at the head performs it all).
        _, cands = _mine(LOOP_SRC, [_agg(BASE + 4)])
        assert cands and cands[0].head_pc == BASE + 4

    def test_entry_pc_in_interior_rejected(self):
        _, cands = _mine(RUN_SRC, [_agg(BASE)], entry_pc=BASE + 8)
        assert cands == []

    def test_overlapping_candidates_keep_best_score(self):
        # Two hot heads inside the same loop: the higher-scoring region
        # wins, the overlapping one is dropped.
        aggs = [_agg(BASE + 4, hits=100, instrs=600),
                _agg(BASE + 8, hits=90, instrs=300)]
        _, cands = _mine(LOOP_SRC, aggs, min_run=3)
        assert len(cands) == 1
        assert cands[0].head_pc == BASE + 4

    def test_ranking_is_pure_function_of_profile(self):
        aggs = [_agg(BASE + 4), _agg(BASE)]
        _, fwd = _mine(LOOP_SRC, aggs)
        _, rev = _mine(LOOP_SRC, list(reversed(aggs)))
        assert fwd == rev

    def test_mram_namespace_ignored(self):
        _, cands = _mine(
            LOOP_SRC,
            [TraceAggregate("mram", BASE + 4, 100, 600, 0, 600)])
        assert cands == []


class TestGenerate:
    def _setup(self):
        machine = build_metal_machine([], with_caches=False)
        words, cands = _mine(LOOP_SRC, [_agg(BASE + 4)])
        return machine, words, cands[0]

    def test_generated_loop_routine_verifies(self):
        machine, words, cand = self._setup()
        image = machine.metal_image
        routine = generate_routine(cand, image, words, BASE)
        assert routine.name == f"synth_{cand.head_pc:x}"
        assert routine.entry == free_entry(image) == 0
        assert routine.mregs           # counter mreg allocated
        machine.append_mroutines([routine])
        assert routine.facts.purity.value == "mram-only"
        # Provenance words: counter, head pc, region words, kind code.
        assert routine.data_init == (0, cand.head_pc, cand.length, 1)

    def test_counter_disabled_drops_mreg_and_stays_pure(self):
        machine, words, cand = self._setup()
        routine = generate_routine(cand, machine.metal_image, words, BASE,
                                   counter=False)
        assert routine.mregs == ()
        assert "mld" not in routine.source
        machine.append_mroutines([routine])
        assert routine.facts.purity.value == "pure"

    def test_synthesized_words_pass_decode_oracle(self):
        # Every word MSYNTH emits must decode identically under the
        # MCONF independent oracle — fused code cannot smuggle in an
        # encoding the primary decoder and oracle disagree on.
        machine, words, cand = self._setup()
        routine = generate_routine(cand, machine.metal_image, words, BASE)
        machine.append_mroutines([routine])
        assert check_words(routine.code_words) == []

    def test_free_mreg_skips_owned_and_shared(self):
        shape = [
            MRoutine(name="a", entry=0, source="mexit\n", mregs=(0, 1)),
            MRoutine(name="b", entry=1, source="mexit\n", shared_mregs=(2,)),
        ]
        machine = build_metal_machine(shape, with_caches=False)
        assert free_mreg(machine.metal_image) == 3
        assert free_entry(machine.metal_image) == 2


class TestAppend:
    def _routine(self, name="late", entry=1, source="mexit\n", **kwargs):
        return MRoutine(name=name, entry=entry, source=source, **kwargs)

    def test_append_refreshes_facts_and_ranges(self):
        base = MRoutine(name="first", entry=0, source="mexit\n")
        machine = build_metal_machine([base], with_caches=False)
        image = machine.metal_image
        version = image.mram.code_version
        added = machine.append_mroutines([self._routine(data_words=1,
                                                        source="""
    mld  t0, LATE_DATA(x0)
    addi t0, t0, 1
    mexit
""")])
        assert image.mram.code_version > version
        assert image.analysis["late"].facts is added[0].facts
        assert machine.symbols["MR_LATE"] == 1

    def test_appended_routine_executes_after_prior_compile(self):
        # Warm the tcache on the original image first, then append and
        # call the new routine: the lazy code_version check must drop
        # the stale mram translations and compile the new code.
        base = MRoutine(name="first", entry=0, source="mexit\n")
        machine = build_metal_machine([base], with_caches=False)
        machine.load_and_run("_start:\n    menter MR_FIRST\n    halt\n")
        machine.append_mroutines([self._routine(source="""
    addi s5, s5, 77
    mexit
""")])
        machine.core.halted = False
        machine.load_and_run("_start:\n    menter MR_LATE\n    halt\n")
        assert machine.core.regs[21] == 77     # s5

    def test_failed_append_commits_nothing(self):
        base = MRoutine(name="first", entry=0, source="mexit\n")
        machine = build_metal_machine([base], with_caches=False)
        image = machine.metal_image
        snap = (dict(image.routines), dict(image.symbols),
                dict(image.analysis), image.code_used_bytes,
                image.data_used_bytes, bytes(image.mram.code),
                image.mram.code_version)
        bad = self._routine(source="    menter MR_NOWHERE\n    mexit\n")
        with pytest.raises(MroutineLoadError):
            machine.append_mroutines([bad])
        assert (dict(image.routines), dict(image.symbols),
                dict(image.analysis), image.code_used_bytes,
                image.data_used_bytes, bytes(image.mram.code),
                image.mram.code_version) == snap

    def test_duplicate_entry_rejected(self):
        base = MRoutine(name="first", entry=0, source="mexit\n")
        machine = build_metal_machine([base], with_caches=False)
        with pytest.raises(MroutineLoadError):
            machine.append_mroutines([self._routine(entry=0)])


class TestRewrite:
    def _patched(self, force_trampoline=False):
        words, cands = _mine(LOOP_SRC, [_agg(BASE + 4)])
        program = assemble(LOOP_SRC, base=BASE)
        patch = rewrite_program(program, cands[0], entry=3,
                                force_trampoline=force_trampoline)
        return program, cands[0], patch

    def test_inline_patch_is_length_preserving(self):
        baseline = assemble(LOOP_SRC, base=BASE)
        program, cand, patch = self._patched()
        assert patch.style == "inline"
        assert len(program.data) == len(baseline.data)
        assert patch.masked_ranges == ((cand.head_pc, cand.end_pc),)
        # Outside the region the image is untouched.
        lo, hi = cand.head_pc - BASE, cand.end_pc - BASE
        assert program.data[:lo] == baseline.data[:lo]
        assert program.data[hi:] == baseline.data[hi:]

    def test_trampoline_patch_appends_stub(self):
        baseline = assemble(LOOP_SRC, base=BASE)
        program, cand, patch = self._patched(force_trampoline=True)
        assert patch.style == "trampoline"
        assert len(program.data) == len(baseline.data) + 8
        assert patch.masked_ranges == (
            (cand.head_pc, cand.end_pc),
            (baseline.end, baseline.end + 8),
        )
        # Only the head word of the region is rewritten.
        lo = cand.head_pc - BASE
        assert program.data[lo + 4:len(baseline.data)] == \
            baseline.data[lo + 4:]

    def test_region_outside_image_rejected(self):
        words, cands = _mine(LOOP_SRC, [_agg(BASE + 4)])
        program = assemble("_start:\n    halt\n", base=BASE)
        with pytest.raises(ValueError):
            rewrite_program(program, cands[0], entry=0)


class TestPipeline:
    @pytest.mark.parametrize("workload", ["tight_loop", "hash_mix"])
    def test_end_to_end_speedup_and_parity(self, workload):
        report = synthesize_workload(workload, iters=2_000)
        assert report["candidates"], "no fusable candidate emitted"
        assert report["digest"]["match"]
        assert report["lint_clean"]
        assert report["speedup"] >= 1.15
        for cand in report["candidates"]:
            assert cand["oracle_disagreements"] == 0
            assert cand["hw_delta"]["cells"] > 0
            assert cand["hw_delta"]["wires"] > 0
        top = report["candidates"][0]
        assert top["kind"] == "loop"
        assert top["purity"] == "mram-only"
        assert top["invocations"] and top["invocations"] >= 1

    def test_trampoline_style_keeps_parity(self):
        report = synthesize_workload("tight_loop", iters=1_000,
                                     force_trampoline=True)
        assert report["candidates"]
        assert all(c["style"] == "trampoline" for c in report["candidates"])
        assert report["digest"]["match"]

    def test_no_counter_mode(self):
        report = synthesize_workload("tight_loop", iters=1_000,
                                     counter=False)
        assert report["candidates"]
        assert all(c["invocations"] is None for c in report["candidates"])
        assert report["digest"]["match"]

    def test_unfusable_workload_reports_empty(self):
        # Every hot trace of syscall_heavy runs through an ecall: no
        # plain region long enough to fuse.
        report = synthesize_workload("syscall_heavy", iters=200)
        assert report["candidates"] == []
        assert report["digest"]["match"]

    def test_generated_routines_standalone_image(self):
        routines = generated_routines(iters=300)
        assert len(routines) >= 2
        assert len({r.name for r in routines}) == len(routines)
        assert [r.entry for r in routines] == list(range(len(routines)))
        # The standalone set loads into a fresh image (what the MAS
        # lint registry's "synth" app does).
        machine = build_metal_machine(routines, with_caches=False)
        assert set(machine.metal_image.analysis) == {r.name
                                                     for r in routines}


class TestLockstepWithSynthesis:
    """The MCONF four-way differential, with MSYNTH enabled: every
    execution variant runs the same rewritten guest and must agree on
    all architecturally visible state — and the masked digest must
    equal an unpatched baseline's."""

    @staticmethod
    def _variant(name, routines, setup):
        machine = build_metal_machine(
            list(routines), engine="functional", with_caches=False,
            tcache=(name != "interp"))
        if setup is not None:
            setup(machine)
        if name == "profiled":
            machine.set_profiling(True)
        elif name == "hooked":
            machine.sim.add_step_hook(lambda step: None)
        return machine

    def test_four_way_differential_25_seeds(self):
        for seed in range(25):
            name = ("tight_loop", "hash_mix")[seed % 2]
            workload = WORKLOADS[name]
            iters = 200 + seed * 17
            source = workload_source(name, iters)
            aggregates = profile_aggregates(source, workload.routines,
                                            workload.setup)
            scout = self._variant("chained", workload.routines,
                                  workload.setup)
            program = scout.assemble(source, base=BASE)
            words = program.words()
            entry_pc = program.symbols.get("_start", BASE)
            cands = mine_candidates(words, BASE, aggregates, top=2,
                                    entry_pc=entry_pc)
            assert cands, f"seed {seed}: no candidate on {name}"

            baseline = self._variant("chained", workload.routines,
                                     workload.setup)
            baseline.load_and_run(source, base=BASE)

            states, digests, masked = [], [], []
            for vname in VARIANTS:
                m = self._variant(vname, workload.routines, workload.setup)
                routines = [generate_routine(c, m.metal_image, words, BASE)
                            for c in cands]
                m.append_mroutines(routines)
                patched = m.assemble(source, base=BASE)
                masked = []
                for cand, routine in zip(cands, routines):
                    patch = rewrite_program(patched, cand, routine.entry)
                    masked.extend(patch.masked_ranges)
                m.load(patched)
                m.core.pc = entry_pc
                m.run(max_instructions=500_000, raise_on_limit=False)
                assert m.core.halted, f"seed {seed}: {vname} did not halt"
                states.append((vname, machine_state(m)))
                digests.append(architectural_digest(m, masked))

            first_name, first = states[0]
            for vname, state in states[1:]:
                assert state == first, (
                    f"seed {seed}: {vname} diverged from {first_name}")
            base_digest = architectural_digest(baseline, masked)
            for (vname, _), digest in zip(states, digests):
                assert digest == base_digest, (
                    f"seed {seed}: {vname} digest != unpatched baseline")


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "synth", *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_list(self):
        result = self._run("--list")
        assert result.returncode == 0
        assert "hash_mix" in result.stdout

    def test_workload_report_and_json(self, tmp_path):
        out = tmp_path / "synth.json"
        result = self._run("tight_loop", "--iters", "1500",
                           "--json", str(out))
        assert result.returncode == 0, result.stderr
        assert "speedup" in result.stdout
        assert "MATCH" in result.stdout
        payload = json.loads(out.read_text())
        assert payload["digest"]["match"]
        assert payload["candidates"]

    def test_smoke_gate(self, tmp_path):
        out = tmp_path / "smoke.json"
        result = self._run("--smoke", "--iters", "800", "--json", str(out))
        assert result.returncode == 0, result.stderr
        assert "smoke: ok" in result.stdout
        payload = json.loads(out.read_text())
        assert payload["tool"] == "msynth-smoke"
        assert payload["ok"] is True
        assert len(payload["reports"]) == 2

    def test_source_file(self, tmp_path):
        path = tmp_path / "prog.s"
        path.write_text(LOOP_SRC)
        result = self._run(str(path))
        assert result.returncode == 0, result.stderr
        assert "synth_1004" in result.stdout

    def test_missing_target(self):
        result = self._run()
        assert result.returncode == 2
