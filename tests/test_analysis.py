"""MAS (Mcode Analysis Suite) tests.

Three layers:

* a seeded-bug corpus — known-bad mroutines, each caught by the *right*
  pass at the *right* word;
* no-false-positives — every bundled mcode application lints clean
  (zero error diagnostics) under the strict :data:`LINT_CONFIG`;
* the purity facts — they flow loader → image and gate nothing: every
  mroutine, store-free or not, retires at tier 2 with results
  bit-identical to the interpreter's.
"""

import pytest

from repro import build_metal_machine
from repro.analysis import (
    AnalysisConfig,
    LINT_CONFIG,
    Purity,
    analyze_routine,
    check_image_mregs,
)
from repro.analysis.lint import APPS, lint_main, lint_routines
from repro.errors import MroutineVerifyError
from repro.metal import MRoutine, load_mroutines
from repro.metal.verifier import verify_mroutine, verify_or_raise


def routine(name="r", entry=0, source="    mexit\n", **kw):
    return MRoutine(name=name, entry=entry, source=source, **kw)


def lint_one(source, **kw):
    """Assemble one routine into a fresh image and lint it."""
    results, extra = lint_routines([routine(source=source, **kw)])
    (result,) = results.values()
    return result


def diag_mnemonics(result):
    """pass_name/severity/anchored-mnemonic triples for assertion."""
    out = []
    for d in result.diagnostics:
        instr = (result.cfg.instrs[d.word_index]
                 if 0 <= d.word_index < len(result.cfg.instrs) else None)
        out.append((d.pass_name, d.severity,
                    instr.mnemonic if instr is not None else None))
    return out


# ---------------------------------------------------------------------------
# Seeded-bug corpus: each entry is (source, declarations, expected pass,
# expected severity, mnemonic at the reported word, message fragment).
# ---------------------------------------------------------------------------

CORPUS = [
    pytest.param(
        "    add a0, a0, a1\n", {},
        "exit", "error", "add", "no mexit/mraise",
        id="no-exit-anywhere"),
    pytest.param(
        "    bnez a0, skip\n    mexit\nskip:\n    add a0, a0, a1\n", {},
        "exit", "error", "add", "falls off the end",
        id="fall-off-branch-arm"),
    pytest.param(
        "loop:\n    addi a0, a0, 1\n    j loop\n    mexit\n", {},
        "exit", "error", "jal", "no mexit/mraise reachable",
        id="infinite-loop"),
    pytest.param(
        "    .word 0xffffffff\n    mexit\n", {},
        "structure", "error", None, "undecodable word",
        id="undecodable-word"),
    pytest.param(
        "    ecall\n    mexit\n", {},
        "structure", "error", "ecall", "illegal in mcode",
        id="forbidden-ecall"),
    pytest.param(
        "    mret\n    mexit\n", {},
        "structure", "error", "mret", "illegal in mcode",
        id="forbidden-mret"),
    pytest.param(
        "    menter 0\n    mexit\n", {},
        "structure", "error", "menter", "nested menter",
        id="nested-menter"),
    pytest.param(
        "    jalr x0, 0(x1)\n    mexit\n", {},
        "structure", "error", "jalr", "allow_dynamic_jumps",
        id="undeclared-jalr"),
    pytest.param(
        "    beq x0, x0, 64\n    mexit\n", {},
        "structure", "error", "beq", "escapes the routine",
        id="escaping-branch"),
    pytest.param(
        "    jal x0, 1024\n    mexit\n", {},
        "structure", "error", "jal", "escapes the routine",
        id="escaping-jal"),
    pytest.param(
        "    li   t0, 0x10000\n    mld  a0, 0(t0)\n    mexit\n",
        {"data_words": 1},
        "bounds", "error", "mld", "outside the allowed data ranges",
        id="const-oob-computed-mld"),
    pytest.param(
        "    mst  a0, 64(x0)\n    mexit\n", {"data_words": 1},
        "bounds", "error", "mst", "outside the routine's allowed data",
        id="const-oob-offset-mst"),
    pytest.param(
        "    li   t0, 0x4000\n    andi t1, a0, 3\n    add  t2, t0, t1\n"
        "    mld  a0, 0(t2)\n    mexit\n", {"data_words": 1},
        "bounds", "error", "mld", "entirely outside",
        id="interval-oob-mld"),
    pytest.param(
        "    wmr  m31, a0\n    wmr  m31, a1\n    mexit\n", {},
        "mreg", "error", "wmr", "overwritten on every path",
        id="m31-dead-store"),
    pytest.param(
        "    wmr  m5, a0\n    mexit\n", {},
        "mreg", "error", "wmr", "writes m5 without declaring",
        id="undeclared-mreg-write"),
    pytest.param(
        "    rmr  a0, m7\n    mexit\n", {},
        "mreg", "error", "rmr", "reads m7 without declaring",
        id="undeclared-mreg-read"),
    pytest.param(
        "    mexit\n    add a0, a0, a1\n", {},
        "exit", "warn", "add", "unreachable code",
        id="dead-code-warns"),
    pytest.param(
        "loop:\n    addi a0, a0, -1\n    bnez a0, loop\n    mexit\n", {},
        "budget", "warn", "bne", "cannot be bounded",
        id="loop-unbounded-warns"),
]


class TestSeededCorpus:
    @pytest.mark.parametrize(
        "source,decl,pass_name,severity,mnemonic,fragment", CORPUS)
    def test_caught_by_the_right_pass(self, source, decl, pass_name,
                                      severity, mnemonic, fragment):
        result = lint_one(source, **decl)
        matches = [d for d in result.diagnostics
                   if d.pass_name == pass_name and d.severity == severity
                   and fragment in d.message]
        assert matches, (
            f"expected a {severity}[{pass_name}] mentioning {fragment!r}, "
            f"got {[(d.pass_name, d.severity, d.message) for d in result.diagnostics]}")
        d = matches[0]
        instr = result.cfg.instrs[d.word_index]
        if mnemonic is None:
            assert instr is None          # anchored at the undecodable word
            assert d.raw is not None
        else:
            assert instr.mnemonic == mnemonic
            assert d.disasm and d.disasm.startswith(mnemonic)

    def test_empty_routine(self):
        result = analyze_routine(routine(source=""), config=LINT_CONFIG)
        assert [d.pass_name for d in result.errors] == ["structure"]
        assert "empty routine" in result.errors[0].message

    def test_over_budget_loop_free(self):
        body = "    addi a0, a0, 1\n" * 6 + "    mexit\n"
        r = routine(source=body)
        load_mroutines([r], verify=False)
        result = analyze_routine(
            r, allowed_data_ranges=[(0, 0)],
            config=AnalysisConfig(name="tiny", cycle_budget=4))
        assert any(d.pass_name == "budget" and d.is_error
                   for d in result.diagnostics)
        assert result.facts.max_path_instructions == 7

    def test_witness_traces_a_path(self):
        result = lint_one(
            "    bnez a0, skip\n    mexit\nskip:\n    add a0, a0, a1\n")
        (d,) = [d for d in result.errors if d.pass_name == "exit"]
        assert d.witness is not None and d.witness[0] == 0


class TestBoundsProofs:
    def test_masked_index_proven_in_bounds(self):
        result = lint_one(
            "    andi t0, a0, 60\n    mld  a0, 0(t0)\n    mexit\n",
            data_words=16)
        assert not [d for d in result.diagnostics if d.pass_name == "bounds"]
        assert result.facts.proven_accesses == 1
        assert result.facts.unproven_accesses == 0

    def test_unknown_address_warns_only(self):
        result = lint_one("    mld  a0, 0(a1)\n    mexit\n", data_words=1)
        bounds = [d for d in result.diagnostics if d.pass_name == "bounds"]
        assert len(bounds) == 1 and not bounds[0].is_error
        assert result.facts.unproven_accesses == 1

    def test_shared_data_extends_the_ranges(self):
        results, _ = lint_routines([
            routine("a", 0, "    mexit\n", data_words=4),
            routine("b", 1, "    mld a0, 0(x0)\n    mexit\n",
                    shared_data=("a",)),
        ])
        assert results["b"].ok
        assert results["b"].facts.proven_accesses == 1


class TestMregImageCheck:
    def test_read_never_written_warns(self):
        results, extra = lint_routines([
            routine("w", 0, "    rmr a0, m3\n    mexit\n", mregs=(3,)),
        ])
        assert any("no routine in the image ever writes" in d.message
                   for d in extra)

    def test_written_somewhere_is_quiet(self):
        results, extra = lint_routines([
            routine("w", 0, "    wmr m3, a0\n    mexit\n", shared_mregs=(3,)),
            routine("r", 1, "    rmr a0, m3\n    mexit\n", shared_mregs=(3,)),
        ])
        assert extra == []

    def test_check_image_mregs_direct(self):
        r = routine("solo", 0, "    rmr a0, m2\n    mexit\n", mregs=(2,))
        load_mroutines([r], verify=False)
        result = analyze_routine(r, allowed_data_ranges=[(0, 0)])
        diags = check_image_mregs({"solo": result})
        assert diags and all(not d.is_error for d in diags)


class TestNoFalsePositives:
    """Every bundled application must lint clean: zero error diagnostics."""

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_app_lints_clean(self, app):
        results, extra = lint_routines(APPS[app]())
        errors = [d for r in results.values() for d in r.errors]
        errors += [d for d in extra if d.is_error]
        assert errors == [], [(d.routine, d.word_index, d.message)
                              for d in errors]

    def test_lint_cli_apps_exits_zero(self, capsys):
        assert lint_main(["--apps"]) == 0
        out = capsys.readouterr().out
        assert "(ok)" in out and "FAILED" not in out

    def test_lint_cli_requires_a_target(self, capsys):
        assert lint_main([]) == 2


class TestVerifierFacade:
    """Satellite: the historical verifier surface, now backed by MAS."""

    def test_verify_report_legacy_strings(self):
        r = routine(source="    add a0, a0, a1\n")
        load_mroutines([r], verify=False)
        report = verify_mroutine(r, allowed_data_ranges=[(0, 0)])
        assert not report.ok
        assert any(p.startswith("[word ") and "no mexit" in p
                   for p in report.problems)

    def test_verify_error_carries_context(self):
        r = routine(name="ctx", source="    ecall\n    mexit\n")
        load_mroutines([r], verify=False)
        with pytest.raises(MroutineVerifyError) as exc_info:
            verify_or_raise(r, allowed_data_ranges=[(0, 0)])
        exc = exc_info.value
        assert exc.routine == "ctx"
        assert exc.word_index == 0
        assert exc.word is not None
        assert exc.disasm and exc.disasm.startswith("ecall")
        assert "ctx" in str(exc)

    def test_loader_rejects_bad_routine_with_context(self):
        with pytest.raises(MroutineVerifyError) as exc_info:
            load_mroutines([routine(source="    add a0, a0, a1\n")])
        assert exc_info.value.word_index is not None


SPIN = """
spin_entry:
    li   t0, 40
spin_loop:
    addi t0, t0, -1
    bnez t0, spin_loop
    mexit
"""

STORE_SPIN = """
spin_entry:
    li   t0, 40
    li   t1, 0x7000
spin_loop:
    sw   t0, 0(t1)
    addi t0, t0, -1
    bnez t0, spin_loop
    mexit
"""

DRIVER = """
_start:
    li   s0, 20
again:
    menter MR_SPIN
    addi s0, s0, -1
    bnez s0, again
    halt
"""


def spin_machine(source=SPIN, **config):
    return build_metal_machine([routine("spin", 1, source)], **config)


class TestPurityFacts:
    def test_pure_routine_classified(self):
        image = load_mroutines([routine("spin", 1, SPIN)])
        facts = image.routines["spin"].facts
        assert facts.purity is Purity.PURE
        assert not facts.reads_ram and not facts.writes_ram
        assert facts.has_loops

    def test_ram_store_classified(self):
        image = load_mroutines([routine("spin", 1, STORE_SPIN)])
        facts = image.routines["spin"].facts
        assert facts.purity is Purity.WRITES_RAM
        assert facts.writes_ram and not facts.reads_ram

    def test_ram_load_classified(self):
        image = load_mroutines([routine(
            "peek", 1, "    li t0, 0x7000\n    lw a0, 0(t0)\n    mexit\n")])
        assert image.routines["peek"].facts.purity is Purity.READS_RAM

    def test_mram_only_classified(self):
        image = load_mroutines([routine(
            "bump", 1,
            "    mld t0, BUMP_DATA(x0)\n    addi t0, t0, 1\n"
            "    mst t0, BUMP_DATA(x0)\n    mexit\n", data_words=1)])
        facts = image.routines["bump"].facts
        assert facts.purity is Purity.MRAM_ONLY
        assert not facts.reads_ram and not facts.writes_ram


class TestTcachePureLoop:
    """MJIT compiles Metal-mode blocks whatever their purity: the facts
    classify a routine, they gate nothing."""

    def test_pure_routine_runs_unguarded(self):
        m = spin_machine()
        m.load_and_run(DRIVER)
        tc = m.perf.tcache
        assert tc.jit_instructions == m.perf.guest_instructions > 0

    def test_guest_invisible_bit_identical(self):
        """The interpreter and MJIT agree on the pure routine."""
        runs = {}
        for tcache in (False, True):
            m = spin_machine(tcache=tcache)
            m.load_and_run(DRIVER)
            runs[tcache] = (m.instret, m.cycles, tuple(m.core.regs))
        assert m.perf.tcache.jit_instructions > 0
        assert runs[True] == runs[False]

    def test_impure_routine_not_dispatched_pure(self):
        """A routine that stores to guest RAM runs at tier 2 with the
        interpreter's results."""
        runs = {}
        for tcache in (False, True):
            m = spin_machine(STORE_SPIN, tcache=tcache)
            m.load_and_run(DRIVER)
            assert m.read_word(0x7000) == 1   # the store really happened
            runs[tcache] = (m.instret, m.cycles, tuple(m.core.regs))
        assert runs[True] == runs[False]
        tc = m.perf.tcache
        assert tc.jit_instructions == m.perf.guest_instructions > 0

    def test_reload_drops_stale_purity(self):
        m = spin_machine()
        m.load_and_run(DRIVER)
        old = [b for b in m.sim.tcache._mram.values() if b.jit_fn is not None]
        assert old
        m.reload_mroutines([routine("spin", 1, STORE_SPIN)])
        facts = m.metal_image.analysis["spin"].facts
        assert facts.purity is Purity.WRITES_RAM
        m.reset()
        m.load_and_run(DRIVER)
        assert all(not b.valid and b.jit_fn is None for b in old)
        assert m.perf.tcache.jit_instructions > 0
        assert m.read_word(0x7000) == 1
