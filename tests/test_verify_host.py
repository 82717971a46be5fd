"""MVTV host-invariant-lint tests (:mod:`repro.verify.hostlint`).

The lints parse the host sources (``ast``), so the mutation tests here
feed edited source text through ``override_sources`` rather than
patching live modules: each seeded bug is the real text of the file
with one invariant-preserving line added or removed.

Also houses the lint-registry satellites: the APPS registry must cover
every bundled mcode application, and ``python -m repro lint --json``
must emit the machine-readable report.
"""

from __future__ import annotations

import json
import pathlib

from repro.analysis.lint import APPS, lint_main
from repro.verify.cli import verify_main
from repro.verify.hostlint import (
    _SRC_ROOT,
    check_eviction_completeness,
    check_snapshot_completeness,
    run_host_lints,
)


def _mutated(relpath, old, new):
    text = (_SRC_ROOT / relpath).read_text()
    assert old in text, f"mutation anchor missing from {relpath}"
    return {relpath: text.replace(old, new, 1)}


# ---------------------------------------------------------------------------
# clean tree
# ---------------------------------------------------------------------------

def test_host_sources_lint_clean():
    assert run_host_lints() == []


# ---------------------------------------------------------------------------
# seeded bugs
# ---------------------------------------------------------------------------

def test_unsnapshotted_field_is_detected():
    # A new mutable field on the core that take_snapshot never captures.
    override = _mutated(
        "cpu/core.py",
        "        self.instret = 0",
        "        self.instret = 0\n        self.specbuf = []")
    findings = check_snapshot_completeness(override_sources=override)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.pass_name == "snapshot"
    assert "CpuCore.specbuf" in finding.where
    assert "not captured" in finding.message


def test_missing_code_version_bump_is_detected():
    # write_code patches MRAM code bytes without bumping code_version —
    # stale tier-2 blocks would keep running the old code.
    override = _mutated(
        "metal/mram.py",
        "        struct.pack_into(f\"<{len(words)}I\", self.code, offset, "
        "*words)\n        self.code_version += 1",
        "        struct.pack_into(f\"<{len(words)}I\", self.code, offset, "
        "*words)")
    findings = check_eviction_completeness(override_sources=override)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.pass_name == "eviction"
    assert "write_code" in finding.where


def test_missing_append_fact_refresh_is_detected():
    # The MSYNTH append path writes MRAM code into an existing image; if
    # it stops re-attaching the analysis results, the profiler's loop
    # attribution reads a stale image.analysis for the new routines.
    override = _mutated(
        "metal/loader.py",
        "    image.analysis.update(analysis)\n",
        "")
    findings = check_eviction_completeness(override_sources=override)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.pass_name == "eviction"
    assert "append_mroutines" in finding.where
    assert "analysis re-attachment" in finding.message


def test_missing_highwater_advance_is_detected():
    # Same append path, other half of the invariant: the code high-water
    # mark must advance or the next append overwrites live mcode.
    override = _mutated(
        "metal/loader.py",
        "    image.code_used_bytes = code_ptr\n",
        "")
    findings = check_eviction_completeness(override_sources=override)
    assert len(findings) == 1
    assert "append_mroutines" in findings[0].where
    assert "code_used_bytes advance" in findings[0].message


def test_unhooked_ram_restore_is_detected():
    # A restore that assigns guest RAM directly, instead of going
    # through load_pages (whose writes fire the hook), and flushes
    # nothing would leave blocks compiled from the old bytes live.
    override = _mutated(
        "machine/snapshot.py",
        "    machine.ram.load_pages(pages)\n",
        "    machine.ram.data[:] = bytes(size)\n")
    findings = check_eviction_completeness(override_sources=override)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.pass_name == "eviction"
    assert "restore_snapshot" in finding.where
    assert "without flushing the tcache" in finding.message


def _evict_findings(kept):
    """The eviction lint of a ``TranslationCache._evict`` that keeps
    *kept* of its region drop."""
    override = _mutated(
        "cpu/tcache.py",
        "        block.valid = False\n"
        "        for member in block.region or (block,):\n"
        "            member.jit_fn = None\n"
        "            member.region = None\n",
        "        block.valid = False\n" + kept)
    return check_eviction_completeness(override_sources=override)


def test_missing_jit_eviction_is_detected():
    # Invalidating a block without dropping its compiled region leaves
    # the dispatcher a stale jit_fn to call.
    findings = _evict_findings("")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.pass_name == "eviction"
    assert "_evict" in finding.where


def test_region_kept_on_eviction_is_detected():
    # Severing only jit_fn leaves the region on the other members, whose
    # region function would run the evicted member's stale code.
    findings = _evict_findings(
        "        for member in block.region or (block,):\n"
        "            member.jit_fn = None\n")
    assert len(findings) == 1
    assert "_evict" in findings[0].where
    assert "dropping its region" in findings[0].message


def test_prefixes_kept_on_eviction_is_detected():
    # Evicting a block without its prefix blocks leaves their compiled
    # code, which runs the same entries, valid: a store into the block's
    # page would not end a running prefix, and a later dispatch could
    # run the stale prefix.
    override = _mutated(
        "cpu/tcache.py",
        "        for prefix in block.prefixes.values():\n"
        "            TranslationCache._evict(prefix)\n",
        "")
    findings = check_eviction_completeness(override_sources=override)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.pass_name == "eviction"
    assert "_evict" in finding.where
    assert "evicting its prefixes" in finding.message


# ---------------------------------------------------------------------------
# satellites: registry completeness, machine-readable reports
# ---------------------------------------------------------------------------

def test_lint_registry_covers_all_bundled_apps():
    """Every mcode module that exports mroutine factories must be in
    APPS — a new app cannot dodge the lint."""
    mcode = _SRC_ROOT / "mcode"
    modules = {p.stem for p in mcode.glob("*.py")} - {"__init__"}
    factories = {stem for stem in modules
                 if "def make_" in (mcode / f"{stem}.py").read_text()}
    assert factories  # the bundle is not empty
    # Every module exporting routine factories is registered, and every
    # registry entry names a real module (runtime rides along through
    # the lint's demo routine, without factories of its own; "synth" is
    # the MSYNTH-generated set, produced by the synthesizer rather than
    # an mcode module, so generated code cannot dodge the lint either).
    assert factories <= set(APPS)
    assert set(APPS) - {"synth"} <= modules
    assert "runtime" in APPS
    assert "synth" in APPS


def test_lint_json_report(tmp_path):
    out = tmp_path / "lint.json"
    status = lint_main(["--apps", "--json", str(out)])
    payload = json.loads(out.read_text())
    assert payload["tool"] == "mas-lint"
    assert payload["ok"] == (status == 0)
    assert {img["image"] for img in payload["images"]} == set(APPS)
    for img in payload["images"]:
        assert "load_error" in img or "diagnostics" in img


def test_verify_json_report_host_pass(tmp_path):
    out = tmp_path / "verify.json"
    status = verify_main(["--passes", "host", "--json", str(out)])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["tool"] == "mvtv"
    assert payload["passes"] == ["host"]
    assert payload["ok"] is True
    assert payload["host"] == {"snapshot_findings": 0, "eviction_findings": 0}
