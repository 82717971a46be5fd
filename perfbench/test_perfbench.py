"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import fleetjobs  # noqa: E402
import measure  # noqa: E402
import simjobs  # noqa: E402
from spans import NullRecorder, SpanRecorder  # noqa: E402
from workload_gen import FleetStream, SimStream  # noqa: E402


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json")) as fh:
        return json.load(fh)


def test_same_seed_same_stream_different_seed_different_stream():
    for engine in ("functional", "pipeline"):
        a, b, c = (SimStream(s, engine) for s in (7, 7, 8))
        rounds_a = [a.next_round() for _ in range(3)]
        assert rounds_a == [b.next_round() for _ in range(3)]
        assert rounds_a != [c.next_round() for _ in range(3)]
    a, b, c = FleetStream(7), FleetStream(7), FleetStream(8)
    blocks_a = [a.next_block() for _ in range(5)]
    assert blocks_a == [b.next_block() for _ in range(5)]
    assert blocks_a != [c.next_block() for _ in range(5)]


def test_corrupted_digest_and_off_by_one_cycles_count_as_failures():
    goldens = copy.deepcopy(_goldens()["sim_functional"])
    goldens["tight_loop:10000"]["digest"]["regs_sha"] = "0" * 64
    goldens["hash_mix:10000"]["cycles"] += 1
    phase = simjobs.run_phase("functional", 3, 0.0, 1, goldens,
                              NullRecorder(), minimal=True)
    assert len(phase["failures"]) == 2
    assert len(phase["jobs"]) == 6

    golden = _goldens()["fleet"]["workload:tight_loop:909"]
    ok = {"status": "ok", "result": {"digest": golden["digest"],
                                     "instructions": golden["instret"],
                                     "cycles": golden["cycles"]}}
    assert fleetjobs.check_response("short", "tight_loop", 200, ok,
                                    golden) == ""
    corrupt = copy.deepcopy(ok)
    corrupt["result"]["digest"]["ram_sha"] = "0" * 64
    off_by_one = copy.deepcopy(ok)
    off_by_one["result"]["cycles"] += 1
    for bad in (corrupt, off_by_one):
        assert fleetjobs.check_response("short", "tight_loop", 200, bad,
                                        golden)


def test_simulated_statistics_ignore_tracing_and_seed():
    goldens = _goldens()["sim_pipeline"]
    simulated = ("digest", "instret", "cycles", "icache", "dcache",
                 "stalls", "switches")

    def by_cell(seed, recorder):
        phase = simjobs.run_phase("pipeline", seed, 0.0, 1, goldens,
                                  recorder, minimal=True)
        assert not phase["failures"]
        return {(r["program"], r["size"]): {k: r.get(k) for k in simulated}
                for r in phase["jobs"]}

    recorder = SpanRecorder()
    traced = by_cell(1, recorder)
    assert recorder.spans
    assert traced == by_cell(1, NullRecorder()) == by_cell(2, NullRecorder())


def test_wrong_gate_outcome_counts_as_failure():
    rejected = {"status": "error", "error": {"kind": "assembly_error"}}
    assert fleetjobs.check_response("reject", "bad_mnemonic", 400,
                                    rejected, None) == ""
    assert fleetjobs.check_response("reject", "fall_off_end", 400,
                                    rejected, None)
    assert fleetjobs.check_response("reject", "bad_mnemonic", 200,
                                    {"status": "ok"}, None)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        measure.percentile(range(99), 90)
    with pytest.raises(ValueError):
        measure.percentile(range(19), 50)
    assert measure.percentile(range(1, 101), 90) == 90
    assert measure.percentile(range(1, 21), 50) == 10


def test_self_time_subtracts_child_coverage():
    rec = SpanRecorder()
    root = rec.add("job", 0.0, 10.0, 1)
    rec.add("a", 1.0, 4.0, 1, root)
    rec.add("b", 3.0, 5.0, 1, root)     # overlaps a: union is 1..5
    own = rec.self_times_by_name()
    assert own["job"] == [(1, 6.0)]
    assert own["a"] == [(1, 3.0)] and own["b"] == [(1, 2.0)]


def test_fingerprints_must_match_to_compare():
    host = {"cpu_model": "x", "nproc": 2, "python": "3.11.7",
            "calibration_s": 0.03}
    measure.check_comparable({"host": host}, {"host": dict(host)})
    with pytest.raises(ValueError):
        measure.check_comparable({"host": host},
                                 {"host": dict(host, nproc=4)})
    with pytest.raises(ValueError):
        measure.check_comparable({"host": host}, {})


def test_metric_names_and_units_are_well_formed():
    spec = _benchmark_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert len(name) <= 64 and name[0].isalnum()
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


@pytest.mark.parametrize("workload", ["sim_functional", "sim_pipeline",
                                      "fleet_mixed"])
@pytest.mark.parametrize("trace", [0, 1])
def test_minimal_run_emits_every_metric_without_failures(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--minimal"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = _benchmark_spec()
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        assert result["metrics"]["trace.overhead"]["value"] > 0
