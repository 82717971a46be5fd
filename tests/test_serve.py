"""MSERVE serving subsystem tests (src/repro/serve).

Covers warm-start bit-identity for all six named workloads, the
admission gate's accept/reject matrix, preemption + cross-shard
migration digest equivalence, the MetricsRegistry multi-machine merge
API, the thread-mode fleet end to end, the asyncio HTTP front end, the
subcommand registry, and the promoted ``repro.parallel`` helpers.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.machine.builder import DEFAULT_RAM_BYTES
from repro.parallel import WorkerHost, deterministic_pool_map
from repro.profile.registry import MetricsRegistry, Snapshot
from repro.profile.workloads import WORKLOADS, build_workload
from repro.serve.api import (
    DEFAULT_BUDGET, MAX_BUDGET, JobSpec, ServeRejected, architectural_digest,
    digest_hex, parse_request,
)
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.gate import admit_source, lint_guest_program
from repro.serve.http import start_server
from repro.serve.shard import ShardWorker

ITERS = 120


def workload_spec(name, job_id="job", iters=ITERS, **kw):
    return parse_request(dict({"workload": name, "iters": iters}, **kw),
                         job_id, DEFAULT_BUDGET)


def source_spec(source, job_id="job", **kw):
    return parse_request(dict({"source": source}, **kw), job_id,
                         DEFAULT_BUDGET)


def run_once(worker, spec, quantum=10_000_000, resume=None, console="",
             budget_left=None, cycles_done=0):
    return worker.execute({
        "spec": spec, "quantum": quantum,
        "budget_left": budget_left if budget_left is not None
        else spec.max_instructions,
        "resume": resume, "console": console, "cycles_done": cycles_done,
    })


# -- warm-start bit-identity -------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warm_start_digest_matches_fresh_boot(name):
    """Pool-restored runs are bit-identical to fresh-boot runs."""
    spec = workload_spec(name)
    worker = ShardWorker("w0")
    cold = run_once(worker, spec)
    assert cold["kind"] == "done" and cold["error"] is None, cold["error"]
    assert cold["warm"] is False
    warm = run_once(worker, spec)
    assert warm["kind"] == "done" and warm["error"] is None
    assert warm["warm"] is True
    assert warm["result"]["digest"] == cold["result"]["digest"]
    assert warm["result"]["digest_sha"] == cold["result"]["digest_sha"]
    assert warm["result"]["output"] == cold["result"]["output"]

    # And against a machine that has never been pooled at all.
    fresh = build_workload(name, engine="functional")
    program = fresh.assemble(spec.source, base=spec.base)
    fresh.load(program)
    fresh.core.pc = program.symbols.get("_start", spec.base)
    fresh.run(max_instructions=spec.max_instructions)
    digest = architectural_digest(
        fresh, console_text=fresh.console.output.decode("latin-1"))
    assert digest == cold["result"]["digest"]


def test_warm_start_is_faster_on_average():
    """Amortized over a few runs, restore beats boot (asserted loosely
    here; the >=2x acceptance bar is enforced by benchmarks/bench_serve)."""
    spec = workload_spec("mcode_heavy")
    worker = ShardWorker("w0")
    cold = run_once(worker, spec)
    warms = [run_once(worker, spec) for _ in range(3)]
    best_warm = min(r["setup_seconds"] for r in warms)
    assert best_warm < cold["setup_seconds"]


def test_pool_eviction_caps_resident_machines():
    worker = ShardWorker("w0", pool_capacity=2)
    for name in ("tight_loop", "poly_branch", "syscall_heavy"):
        run_once(worker, workload_spec(name))
    assert len(worker._pool) == 2
    assert worker.stats["pool_evictions"] == 1
    # The evicted (least-recent) config boots cold again.
    again = run_once(worker, workload_spec("tight_loop"))
    assert again["warm"] is False


# -- preemption + migration --------------------------------------------------

def test_preempt_resume_digest_equivalence():
    spec = workload_spec("tight_loop")
    worker = ShardWorker("w0")
    whole = run_once(worker, spec)
    assert whole["kind"] == "done"

    part = run_once(worker, spec, quantum=500)
    pieces = 1
    while part["kind"] == "preempted":
        part = run_once(
            worker, spec, quantum=500, resume=part["snapshot"],
            console=part["console"], cycles_done=part["cycles_done"],
            budget_left=spec.max_instructions)
        pieces += 1
    assert part["kind"] == "done" and part["error"] is None
    assert pieces > 1, "quantum too large to exercise preemption"
    assert part["result"]["digest"] == whole["result"]["digest"]


def test_migration_across_shards_digest_equivalence():
    """A preempted capsule resumed on a different worker (the migration
    path) finishes bit-identical to the unpreempted run."""
    spec = workload_spec("syscall_heavy")
    a, b = ShardWorker("a"), ShardWorker("b")
    whole = run_once(a, spec)
    part = run_once(a, spec, quantum=400)
    assert part["kind"] == "preempted"
    hops = 0
    while part["kind"] == "preempted":
        target = b if hops % 2 == 0 else a
        part = run_once(
            target, spec, quantum=400, resume=part["snapshot"],
            console=part["console"], cycles_done=part["cycles_done"],
            budget_left=spec.max_instructions)
        hops += 1
    assert part["kind"] == "done" and part["error"] is None
    assert part["result"]["digest"] == whole["result"]["digest"]
    assert part["result"]["output"] == whole["result"]["output"]
    assert b.stats["resumes"] >= 1


def test_budget_exhaustion_reported():
    spec = source_spec("_start:\nspin:\n    j spin\n",
                       max_instructions=5_000)
    worker = ShardWorker("w0")
    # Quantum larger than the remaining budget: the shard clamps the
    # run to the budget and classifies the non-halt as exhaustion.
    job = run_once(worker, spec, quantum=spec.max_instructions)
    assert job["kind"] == "done"
    assert job["error"]["kind"] == "budget_exhausted"
    # A smaller quantum preempts instead — the budget is not yet spent.
    job = run_once(worker, spec, quantum=2_000)
    assert job["kind"] == "preempted"
    follow = run_once(worker, spec, quantum=5_000, resume=job["snapshot"],
                      console=job["console"],
                      cycles_done=job["cycles_done"],
                      budget_left=spec.max_instructions
                      - job["instructions"])
    assert follow["kind"] == "done"
    assert follow["error"]["kind"] == "budget_exhausted"


# -- the admission gate ------------------------------------------------------

def test_gate_admits_clean_program():
    src = ("_start:\n    li t0, 3\nloop:\n    addi t0, t0, -1\n"
           "    bnez t0, loop\n    halt\n")
    assert admit_source(source_spec(src), DEFAULT_RAM_BYTES) == []


def test_gate_rejects_assembly_error():
    with pytest.raises(ServeRejected) as exc:
        admit_source(source_spec("_start:\n    frobnicate x1\n"),
                     DEFAULT_RAM_BYTES)
    assert exc.value.error["kind"] == "assembly_error"


def test_gate_rejects_escaping_jump():
    with pytest.raises(ServeRejected) as exc:
        admit_source(source_spec("_start:\n    j _start + 0x10000\n"),
                     DEFAULT_RAM_BYTES)
    assert exc.value.error["kind"] == "lint_rejected"
    assert any("escapes" in f["message"]
               for f in exc.value.error["findings"])


def test_gate_rejects_fall_off_the_end():
    with pytest.raises(ServeRejected) as exc:
        admit_source(source_spec("_start:\n    li t0, 1\n"),
                     DEFAULT_RAM_BYTES)
    assert exc.value.error["kind"] == "lint_rejected"


def test_gate_rejects_menter_without_mroutines():
    with pytest.raises(ServeRejected) as exc:
        admit_source(source_spec("_start:\n    menter 0\n    halt\n"),
                     DEFAULT_RAM_BYTES)
    assert exc.value.error["kind"] == "lint_rejected"
    assert any("mroutines" in f["message"]
               for f in exc.value.error["findings"])


def test_gate_allows_data_after_halt():
    """Trailing data words are unreachable — not lint errors."""
    src = "_start:\n    halt\n.word 0xdeadbeef\n.word 0x00000000\n"
    assert admit_source(source_spec(src), DEFAULT_RAM_BYTES) == []


def test_gate_warns_on_no_reachable_halt():
    warnings = admit_source(source_spec("_start:\nspin:\n    j spin\n"),
                            DEFAULT_RAM_BYTES)
    assert len(warnings) == 1
    assert warnings[0]["severity"] == "warn"
    assert "halt" in warnings[0]["message"]


def test_gate_symbols_match_machine_environment():
    """The gate assembles with the exact symbol set shards use, so
    admission and execution can never disagree about a program."""
    from repro.machine.builder import assembler_symbols, build_metal_machine

    machine = build_metal_machine([], engine="functional",
                                  with_caches=False)
    # User sources execute on a no-mroutine machine: symbol sets must
    # match exactly (mroutine-bearing machines add MR_* labels on top).
    assert dict(machine.symbols) == assembler_symbols()
    workload_machine = build_workload("tight_loop", engine="functional")
    for name, value in assembler_symbols().items():
        assert workload_machine.symbols[name] == value


def test_lint_guest_program_flags_undecodable_reachable_word():
    from repro.asm.assembler import assemble
    from repro.machine.builder import assembler_symbols

    program = assemble("_start:\n    .word 0xffffffff\n    halt\n",
                       base=0x1000, symbols=assembler_symbols())
    findings = lint_guest_program(program)
    assert any(f.severity == "error" and "undecodable" in f.message
               for f in findings)


# -- request parsing ---------------------------------------------------------

def test_parse_request_workload_defaults():
    spec = parse_request({"workload": "tight_loop"}, "j1", DEFAULT_BUDGET)
    assert spec.kind == "workload" and spec.name == "tight_loop"
    assert spec.engine == "functional"
    assert spec.max_instructions == DEFAULT_BUDGET
    assert spec.config_key.startswith("workload:tight_loop:")


def test_parse_request_source_config_key_is_content_addressed():
    a = parse_request({"source": "_start:\n halt\n"}, "j1", DEFAULT_BUDGET)
    b = parse_request({"source": "_start:\n halt\n"}, "j2", DEFAULT_BUDGET)
    c = parse_request({"source": "_start:\n nop\n halt\n"}, "j3",
                      DEFAULT_BUDGET)
    assert a.config_key == b.config_key
    assert a.config_key != c.config_key


@pytest.mark.parametrize("body,fragment", [
    ({}, "exactly one"),
    ({"workload": "tight_loop", "source": "x"}, "exactly one"),
    ({"workload": "no_such"}, "unknown workload"),
    ({"workload": "tight_loop", "engine": "quantum"}, "engine"),
    ({"workload": "tight_loop", "max_instructions": 0}, "max_instructions"),
    ({"source": "_start:\n halt\n", "base": 0x1001}, "aligned"),
    # JSON booleans are not integers (bool subclasses int in Python).
    ({"workload": "tight_loop", "max_instructions": True},
     "max_instructions"),
    ({"workload": "tight_loop", "iters": True}, "iters"),
    ({"source": "_start:\n halt\n", "base": False}, "base"),
])
def test_parse_request_rejections(body, fragment):
    with pytest.raises(ServeRejected) as exc:
        parse_request(body, "j", DEFAULT_BUDGET)
    assert fragment in exc.value.error["message"]


# -- MetricsRegistry merge ---------------------------------------------------

def _run_metered(name):
    machine = build_workload(name, engine="functional")
    registry = MetricsRegistry(machine)
    program = machine.assemble(
        __import__("repro.profile.workloads",
                   fromlist=["workload_source"]).workload_source(name, 60),
        base=0x1000)
    machine.load(program)
    machine.core.pc = program.symbols.get("_start", 0x1000)
    before = registry.snapshot()
    machine.run(max_instructions=500_000)
    return registry.snapshot().delta(before)


def test_snapshot_namespaced_prefixes_every_key():
    snap = _run_metered("tight_loop")
    spaced = snap.namespaced("s7")
    assert spaced.counters and all(k.startswith("s7/")
                                   for k in spaced.counters)
    assert all(k.startswith("s7/") for k in spaced.stalls)
    assert all(ns.startswith("s7:") for (ns, _pc) in spaced.traces)
    assert spaced.instret == snap.instret
    assert spaced.cycles == snap.cycles


def test_snapshot_merge_has_no_key_collisions():
    """Two machines' snapshots merge with per-shard namespacing: the
    merged counter total equals the sum, and each shard's contribution
    stays separately addressable."""
    a, b = _run_metered("tight_loop"), _run_metered("tight_loop")
    merged = Snapshot.merge({0: a, 1: b})
    assert merged.instret == a.instret + b.instret
    for key, value in a.counters.items():
        assert merged.counters[f"0/{key}"] == value
        assert merged.counters[f"1/{key}"] == b.counters[key]
    assert len(merged.counters) == len(a.counters) + len(b.counters)


def test_snapshot_add_accumulates_same_machine_deltas():
    a, b = _run_metered("poly_branch"), _run_metered("poly_branch")
    total = a.add(b)
    assert total.instret == a.instret + b.instret
    for key in a.counters:
        assert total.counters[key] == a.counters[key] + b.counters[key]


def test_snapshot_to_from_dict_round_trip():
    snap = _run_metered("chain_trampoline").namespaced("s0")
    clone = Snapshot.from_dict(snap.to_dict())
    assert clone.counters == snap.counters
    assert clone.stalls == snap.stalls
    assert clone.instret == snap.instret and clone.cycles == snap.cycles
    assert set(clone.traces) == set(snap.traces)
    for key, agg in snap.traces.items():
        assert clone.traces[key].hits == agg.hits
        assert clone.traces[key].instructions == agg.instructions


# -- the fleet (thread mode) -------------------------------------------------

@pytest.fixture
def fleet():
    fl = Fleet(FleetConfig(shards=2, mode="thread", quantum=2_000)).start()
    yield fl
    fl.stop()


def test_fleet_end_to_end(fleet):
    futures = {}
    for i, name in enumerate(sorted(WORKLOADS)):
        spec = workload_spec(name, job_id=f"job-{i}")
        futures[name] = fleet.submit(spec)
    for name, fut in futures.items():
        resp = fut.result(timeout=120)
        assert resp["status"] == "ok", (name, resp)
        assert resp["result"]["stop_reason"] == "halt"
    metrics = fleet.metrics()
    assert metrics["requests"]["completed"] == len(WORKLOADS)
    assert metrics["requests"]["failed"] == 0
    assert metrics["throughput"]["instructions"] > 0
    assert metrics["latency"]["count"] == len(WORKLOADS)
    assert metrics["latency"]["p99_seconds"] >= metrics["latency"]["p50_seconds"]
    # The fleet snapshot is namespaced per shard and JSON-clean.
    json.dumps(metrics)
    for key in metrics["fleet_snapshot"]["counters"]:
        shard, _, _rest = key.partition("/")
        assert shard in ("0", "1")


def test_fleet_digest_stable_under_preemption(fleet):
    """The same workload, dispatched repeatedly through a fleet with a
    small quantum (heavy preemption/migration), yields one digest."""
    futs = [fleet.submit(workload_spec("mcode_heavy", job_id=f"m-{i}"))
            for i in range(3)]
    shas = {f.result(timeout=120)["result"]["digest_sha"] for f in futs}
    assert len(shas) == 1
    assert fleet.metrics()["requests"]["preemptions"] > 0


def test_fleet_stop_fails_pending_futures():
    fl = Fleet(FleetConfig(shards=1, mode="thread", quantum=1_000)).start()
    futs = [fl.submit(workload_spec("tight_loop", job_id=f"p-{i}",
                                    iters=50_000))
            for i in range(4)]
    fl.stop()
    for fut in futs:
        resp = fut.result(timeout=30)
        assert resp["status"] in ("ok", "error")
    with pytest.raises(RuntimeError):
        fl.submit(workload_spec("tight_loop"))


def test_fleet_dead_shard_fails_its_request_and_the_other_serves():
    """SIGKILL the process shard running a long request: its future
    resolves with ``shard_failure`` within seconds (the timeouts below
    fail the test rather than hang it), and the surviving shard still
    serves the next request."""
    fl = Fleet(FleetConfig(shards=2, mode="process",
                           quantum=MAX_BUDGET)).start()
    try:
        doomed = fl.submit(workload_spec(
            "tight_loop", job_id="doomed", iters=10_000_000,
            max_instructions=MAX_BUDGET))
        deadline = time.monotonic() + 30
        while "doomed" not in fl._running.values():
            assert time.monotonic() < deadline, "request never dispatched"
            time.sleep(0.01)
        shard = next(s for s, j in fl._running.items() if j == "doomed")
        time.sleep(0.2)
        os.kill(fl._hosts[shard]._host.pid, signal.SIGKILL)
        resp = doomed.result(timeout=5)
        assert resp["status"] == "error"
        assert resp["error"]["kind"] == "shard_failure", resp
        after = fl.submit(workload_spec("tight_loop", job_id="after"))
        resp = after.result(timeout=60)
        assert resp["status"] == "ok", resp
        assert resp["shard"] != shard
        assert fl.metrics()["requests"]["failed"] == 1
    finally:
        fl.stop()


def _kill_shard(fl, shard):
    os.kill(fl._hosts[shard]._host.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while fl._hosts[shard].alive:
        assert time.monotonic() < deadline, "shard survived SIGKILL"
        time.sleep(0.01)


def test_fleet_skips_a_dead_idle_shard_and_fails_when_none_is_alive():
    """SIGKILL an idle process shard: the next request is served by the
    other shard instead of failing on the dead one.  Once both are dead,
    each request resolves with ``shard_failure`` rather than waiting
    for an idle shard that never comes."""
    fl = Fleet(FleetConfig(shards=2, mode="process")).start()
    try:
        _kill_shard(fl, 0)
        resp = fl.submit(workload_spec("tight_loop", job_id="a")).result(
            timeout=60)
        assert resp["status"] == "ok", resp
        assert resp["shard"] == 1
        _kill_shard(fl, 1)
        for job_id in ("b", "c"):
            resp = fl.submit(workload_spec("tight_loop",
                                           job_id=job_id)).result(timeout=5)
            assert resp["status"] == "error"
            assert resp["error"]["kind"] == "shard_failure", resp
        assert fl.metrics()["requests"]["failed"] == 2
    finally:
        fl.stop()


# -- the HTTP front end ------------------------------------------------------

async def _http_request(host, port, method, path, body=None,
                        content_length=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    if content_length is None:
        content_length = len(payload)
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                  f"Content-Length: {content_length}\r\n"
                  f"Connection: close\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


def test_http_server_end_to_end():
    async def scenario():
        fl = Fleet(FleetConfig(shards=2, mode="thread",
                               quantum=5_000)).start()
        server = await start_server(fl, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            status, body = await _http_request(host, port, "GET", "/healthz")
            assert status == 200 and body["ok"]

            status, body = await _http_request(host, port, "GET",
                                               "/workloads")
            assert status == 200
            assert set(body["workloads"]) == set(WORKLOADS)

            runs = await asyncio.gather(
                _http_request(host, port, "POST", "/run",
                              {"workload": "tight_loop", "iters": ITERS}),
                _http_request(host, port, "POST", "/run",
                              {"source": "_start:\n    li a0, 7\n"
                                         "    halt\n",
                               "label": "seven"}),
                _http_request(host, port, "POST", "/run",
                              {"source": "_start:\n    bogus x0\n"}),
                _http_request(host, port, "POST", "/run",
                              {"workload": "no_such"}),
            )
            status, body = runs[0]
            assert status == 200 and body["status"] == "ok"
            status, body = runs[1]
            assert status == 200 and body["status"] == "ok"
            assert body["label"] == "seven"
            status, body = runs[2]
            assert status == 400
            assert body["error"]["kind"] == "assembly_error"
            status, body = runs[3]
            assert status == 400
            assert body["error"]["kind"] == "bad_request"

            status, body = await _http_request(host, port, "GET", "/metrics")
            assert status == 200
            assert body["requests"]["completed"] == 2
            assert body["requests"]["failed"] == 0

            status, body = await _http_request(host, port, "GET", "/nope")
            assert status == 404
            status, body = await _http_request(host, port, "POST",
                                               "/metrics")
            assert status == 405
            # A negative Content-Length is the client's error, not a
            # simulator failure.
            status, body = await _http_request(host, port, "POST", "/run",
                                               content_length=-1)
            assert status == 400
            assert body["error"]["kind"] == "bad_request"
        finally:
            server.close()
            fl.stop()

    asyncio.run(scenario())


# -- CLI registry ------------------------------------------------------------

def test_main_help_lists_every_subcommand(capsys):
    from repro.__main__ import SUBCOMMANDS, build_parser

    assert set(SUBCOMMANDS) == {"serve", "conformance", "verify",
                                "faultinject", "profile", "lint", "synth"}
    help_text = build_parser().format_help()
    for name in SUBCOMMANDS:
        assert name in help_text


def test_main_dispatches_through_registry(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["serve", "--help"])
    assert exc.value.code == 0
    assert "--shards" in capsys.readouterr().out


# -- repro.parallel ----------------------------------------------------------

def test_deterministic_pool_map_reexported_from_fault_campaign():
    from repro.fault import campaign

    assert campaign.deterministic_pool_map is deterministic_pool_map


def test_deterministic_pool_map_inline_and_order():
    cells = list(range(17))
    assert deterministic_pool_map(_square, cells, workers=1) == \
        [c * c for c in cells]


def _square(x):
    return x * x


def test_worker_host_thread_mode_round_trip():
    host = WorkerHost(0, _echo_loop, mode="thread")
    host.start()
    try:
        host.send({"value": 41})
        assert host.responses.get(timeout=10) == {"value": 42}
    finally:
        host.stop()
    assert not host.alive


def _echo_loop(worker_id, requests, responses):
    while True:
        message = requests.get()
        if message == WorkerHost.STOP:
            return
        responses.put({"value": message["value"] + 1})
