"""The ``fleet_mixed`` workload: a closed loop against a live fleet.

The server is ``python -m repro serve`` at its defaults (2 process
shards, quantum 50,000, caches off, JIT off), started as a child
process and driven over real TCP by this one generator process: a
closed loop of 2 clients (never more than ``nproc``), each with one
connection open at a time, so a client sends its next request only
after the previous answer arrived.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import re
import select
import signal
import subprocess
import sys
from time import perf_counter, sleep

from repro.machine.builder import build_metal_machine
from repro.profile.workloads import WORKLOADS
from repro.serve.api import architectural_digest, parse_request
from repro.serve.shard import DEFAULT_QUANTUM, ShardWorker

from measure import median, peak_rss_mib, percentile, process_tree, \
    self_peak_rss_mib
from workload_gen import BLOCK_SIZE, FleetStream, expected_reject, \
    fleet_request

#: Seconds a server gets to print its address, and a request to finish.
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0

#: Fleet bring-ups per run; ``setup_s`` takes their median.
BRING_UPS = 7

#: The smallest program the gate admits: one per shard proves both ready.
READY_PROBE = {"source": "_start:\n    halt\n", "label": "ready_probe"}


def reference_result(body: dict) -> dict:
    """Golden result of one admitted request: the reference interpreter
    (tcache off) on the machine shape a shard builds for it."""
    spec = parse_request(body, "golden", 50_000_000)
    if spec.kind == "workload":
        w = WORKLOADS[spec.name]
        machine = build_metal_machine(list(w.routines), engine=spec.engine,
                                      with_caches=False, tcache=False)
        if w.setup is not None:
            w.setup(machine)
    else:
        machine = build_metal_machine([], engine=spec.engine,
                                      with_caches=False, tcache=False)
    image = machine.assemble(spec.source, base=spec.base)
    machine.load(image)
    machine.core.pc = image.symbols.get("_start", spec.base)
    result = machine.run(max_instructions=spec.max_instructions,
                         raise_on_limit=False)
    if not result.halted:
        raise RuntimeError(f"{body} did not halt")
    return {"digest": architectural_digest(machine, console_text=machine.output),
            "instret": machine.core.instret, "cycles": machine.cycles}


def check_response(kind: str, program: str, status: int, response: dict,
                   golden: dict) -> str:
    """Empty string when the response is right, else the reason."""
    if kind == "reject":
        want = expected_reject(program)
        got = (response.get("error") or {}).get("kind")
        return "" if status == 400 and got == want else \
            f"expected a {want} reject, got {status} {got}"
    if status != 200 or response.get("status") != "ok":
        return f"status {status}: {response.get('error')}"
    if golden is None:
        return "no golden result for this request"
    result = response["result"]
    if result["digest"] != golden["digest"]:
        return "digest differs from the golden result"
    if result["instructions"] != golden["instret"]:
        return "instruction count differs from the golden result"
    if result["cycles"] != golden["cycles"]:
        return "cycle count differs from the golden result"
    return ""


async def http_call(port: int, method: str, path: str, body=None):
    """One request on a fresh connection: ``(status, json_body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      f"Content-Length: {len(payload)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, data = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(data)


class FleetServer:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, src_dir: str):
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        self._pids = set()
        self.started = perf_counter()
        # A parent started in the background may ignore SIGINT, and the
        # child would inherit that; the server shuts down on SIGINT.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = self.started + START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                raise RuntimeError("fleet server printed no address")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("fleet server exited during start-up")
            line += chunk
        match = re.search(rb"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(match.group(1))

    async def wait_ready(self, shards: int = 2) -> float:
        """Seconds from launch until every shard answered a request."""
        seen = set()
        while len(seen) < shards:
            answers = await asyncio.gather(*[
                http_call(self.port, "POST", "/run", READY_PROBE)
                for _ in range(shards)])
            for status, response in answers:
                if status != 200:
                    raise RuntimeError(f"ready probe failed: {response}")
                seen.add(response["shard"])
        return perf_counter() - self.started

    def tree_peak_rss_mib(self) -> float:
        """Summed peak RSS of the server and its shard processes."""
        pids = process_tree(self.proc.pid)
        self._pids.update(pids)
        return sum(peak_rss_mib(pid) for pid in pids)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then reap everything."""
        self._pids.update(process_tree(self.proc.pid))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        # The server reaps its shards on a clean stop; kill any it left.
        left = [pid for pid in self._pids - {self.proc.pid} if _is_ours(pid)]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        deadline = perf_counter() + 10.0
        while perf_counter() < deadline and any(_is_ours(p) for p in left):
            sleep(0.05)


def _is_ours(pid: int) -> bool:
    """Whether *pid* is still a live (not zombie) fleet process."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmdline = fh.read()
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return b"repro" in cmdline and state != "Z"


async def run_phase(port: int, seed: int, seconds: float, min_requests: int,
                    goldens: dict, recorder, clients: int) -> dict:
    """Drive whole blocks of the seeded stream until *seconds* have
    passed and at least *min_requests* were sent."""
    stream = FleetStream(seed)
    pending = []
    outcomes = []
    failures = []
    start = perf_counter()
    state = {"next": 0}

    def take():
        index = state["next"]
        if index % BLOCK_SIZE == 0 and index >= min_requests \
                and perf_counter() - start >= seconds:
            return None
        if not pending:
            pending.extend(stream.next_block())
        state["next"] = index + 1
        return index, pending.pop(0)

    async def client(lane: int):
        while True:
            item = take()
            if item is None:
                return
            index, (kind, program) = item
            body, key = fleet_request(kind, program)
            t0 = perf_counter()
            try:
                status, response = await asyncio.wait_for(
                    http_call(port, "POST", "/run", body), REQUEST_TIMEOUT)
            except (OSError, ValueError, IndexError,
                    asyncio.TimeoutError) as exc:
                status, response = 0, {"error": {"kind": type(exc).__name__}}
            t1 = perf_counter()
            reason = check_response(kind, program, status, response,
                                    goldens.get(key))
            if reason:
                failures.append(f"#{index} {kind} {program}: {reason}")
            outcomes.append({"index": index, "kind": kind, "program": program,
                             "rtt": t1 - t0, "ok": not reason,
                             "response": response})
            recorder.add(f"request.{kind}", t0, t1, index, lane=lane)

    await asyncio.gather(*[client(lane + 1) for lane in range(clients)])
    return {"outcomes": outcomes, "failures": failures,
            "wall": perf_counter() - start, "blocks": state["next"] // BLOCK_SIZE}


def _instructions(outcome: dict) -> int:
    result = outcome["response"].get("result")
    return result["instructions"] if outcome["ok"] and result else 0


def throughput_mips(phase: dict) -> float:
    """Guest instructions answered per wall second of *phase*."""
    return sum(_instructions(o) for o in phase["outcomes"]) / phase["wall"] / 1e6


def e2e_metrics(phase: dict, ready_times: list, metrics: dict,
                rss_mib: float, setup_scale: float, scale: float) -> dict:
    """The end-to-end metrics of one untraced phase.  Host times are
    scaled to the reference host: the bring-ups by *setup_scale*, the
    phase by *scale*, each from the HostSampler's samples over it."""
    outcomes = phase["outcomes"]
    rtts = [o["rtt"] * scale for o in outcomes]
    # Simulated time over one request of each admitted kind, so every
    # run agrees exactly whatever its seed and length.
    cells = {}
    for o in outcomes:
        if _instructions(o):
            cells.setdefault((o["kind"], o["program"]), o["response"]["result"])
    setup = metrics["setup"]
    return {
        "setup_s": (median(ready_times) * setup_scale
                    + (setup["cold_mean_seconds"]
                       + setup["warm_mean_seconds"]) * scale),
        "throughput_mips": throughput_mips(phase) / scale,
        "job_p50_ms": percentile(rtts, 50) * 1e3,
        "job_p90_ms": percentile(rtts, 90) * 1e3,
        "sim_cpi": (sum(r["cycles"] for r in cells.values())
                    / sum(r["instructions"] for r in cells.values())),
        "peak_rss_mib": rss_mib + self_peak_rss_mib(),
    }


def _fleet_counters(metrics: dict) -> dict:
    """Shard tcache counters summed over shards, plus busy seconds."""
    totals = {}
    for key, value in metrics["fleet_snapshot"]["counters"].items():
        name = key.split("/", 1)[1]
        totals[name] = totals.get(name, 0) + value
    thr = metrics["throughput"]
    totals["instructions"] = thr["instructions"]
    totals["busy_seconds"] = (thr["instructions"] / thr["busy_mips"] / 1e6
                              if thr["busy_mips"] else 0.0)
    setup = metrics["setup"]
    totals["warm_seconds"] = setup["warm_seconds_total"]
    totals["cold_seconds"] = setup["cold_seconds_total"]
    totals.update(metrics["requests"])
    totals["jit_instructions"] = sum(
        w["jit_instructions"] for w in metrics["per_workload"].values())
    return totals


def replay_long(bodies: list, goldens: dict, recorder) -> dict:
    """Replay long requests quantum by quantum through an in-process
    ``ShardWorker.execute``, feeding each resume capsule back in, with
    the pickle round trip the process transport performs."""
    worker = ShardWorker("replay")
    samples = {"execute": [], "run": [], "pickle": [], "unpickle": [],
               "take": [], "restore": [], "bytes": [], "recompiled": []}
    failures, per_program = [], {}
    for n, (body, key) in enumerate(bodies):
        spec = parse_request(body, f"replay-{n}")
        job = {"spec": spec, "quantum": DEFAULT_QUANTUM,
               "budget_left": spec.max_instructions, "resume": None,
               "console": "", "cycles_done": 0}
        run_s = 0.0
        while True:
            t0 = perf_counter()
            response = worker.execute(job)
            t1 = perf_counter()
            blob = pickle.dumps(response)
            t2 = perf_counter()
            response = pickle.loads(blob)
            t3 = perf_counter()
            root = recorder.add("shard.execute", t0, t1, key, lane=9)
            recorder.add("cpu.run", t0, t0 + response["run_seconds"], key,
                         root, lane=9)
            recorder.add("snapshot.pickle", t1, t2, key, lane=9)
            recorder.add("snapshot.unpickle", t2, t3, key, lane=9)
            samples["execute"].append(t1 - t0)
            samples["run"].append(response["run_seconds"])
            samples["pickle"].append(t2 - t1)
            samples["unpickle"].append(t3 - t2)
            run_s += response["run_seconds"]
            if job["resume"] is not None:
                samples["recompiled"].append(
                    response["metrics"]["counters"]["blocks_compiled"])
            if response["kind"] != "preempted":
                break
            samples["bytes"].append(len(pickle.dumps(response["snapshot"])))
            job = dict(job, resume=response["snapshot"],
                       console=response["console"],
                       cycles_done=response["cycles_done"],
                       budget_left=job["budget_left"] - response["instructions"])
        capsule = job["resume"]
        reason = check_response("long", spec.name, 200, {
            "status": "ok" if response["error"] is None else "error",
            "result": response["result"], "error": response["error"]},
            goldens.get(key))
        if reason:
            failures.append(f"replay {key}: {reason}")
        prog = per_program.setdefault(spec.name, [0, 0.0])
        prog[0] += response["result"]["instructions"] if not reason else 0
        prog[1] += run_s
        if capsule is not None:
            machine = worker.acquire(spec)[0]
            for _ in range(3):
                t0 = perf_counter()
                machine.take_snapshot()
                t1 = perf_counter()
                machine.restore(capsule)
                t2 = perf_counter()
                recorder.add("snapshot.take", t0, t1, key, lane=9)
                recorder.add("snapshot.restore", t1, t2, key, lane=9)
                samples["take"].append(t1 - t0)
                samples["restore"].append(t2 - t1)
    return {"samples": samples, "failures": failures,
            "per_program": per_program}


def layer_metrics(phase: dict, before: dict, after: dict,
                  replay: dict) -> dict:
    """Per-layer metrics of the traced phase, from the clients' own
    timings, the ``/metrics`` difference across the phase and the
    in-process replay.  Counts are per block of 20 requests."""
    a, b = _fleet_counters(after), _fleet_counters(before)
    d = {k: a[k] - b.get(k, 0) for k in a}
    blocks = max(1, phase["blocks"])
    outcomes = phase["outcomes"]
    shards = after["shards"]
    dispatches = d.get("hits", 0) + d.get("misses", 0) + d.get("chain_hits", 0)
    instructions = d["instructions"]
    s = replay["samples"]
    out = {
        "cpu.run_s": (d["busy_seconds"] - d["warm_seconds"]
                      - d["cold_seconds"]) / blocks,
        "cpu.fast_share": (d.get("fast_instructions", 0) / instructions
                           if instructions else 0.0),
        "cpu.jit_share": (d.get("jit_instructions", 0) / instructions
                          if instructions else 0.0),
        "cpu.hit_rate": ((d.get("hits", 0) + d.get("chain_hits", 0))
                         / dispatches if dispatches else 0.0),
        "cpu.blocks_compiled": d.get("blocks_compiled", 0) / blocks,
        "cpu.jit_blocks": d.get("jit_blocks", 0) / blocks,
        "cpu.jit_compile_ms": d.get("jit_compile_ms", 0) / blocks,
        "cpu.chain_break_ratio": (d.get("chain_breaks", 0)
                                  / d["chain_links"]
                                  if d.get("chain_links") else 0.0),
        "serve.setup_warm_ms": (d["warm_seconds"] / d["warm_starts"] * 1e3
                                if d["warm_starts"] else 0.0),
        "serve.setup_cold_ms": (d["cold_seconds"] / d["cold_boots"] * 1e3
                                if d["cold_boots"] else 0.0),
        "serve.warm_starts": d["warm_starts"] / blocks,
        "serve.cold_boots": d["cold_boots"] / blocks,
        "serve.busy_share": d["busy_seconds"] / (shards * phase["wall"]),
        "serve.busy_mips": (instructions / d["busy_seconds"] / 1e6
                            if d["busy_seconds"] else 0.0),
        "serve.jit_share": (d["jit_instructions"] / instructions
                            if instructions else 0.0),
        "serve.preemptions": d["preemptions"] / blocks,
        "serve.migrations": d["migrations"] / blocks,
        "serve.recompile_ratio": (sum(s["recompiled"]) / len(s["recompiled"])
                                  if s["recompiled"] else 0.0),
        "shard.execute_ms": median(s["execute"]) * 1e3,
        "shard.run_quantum_ms": median(s["run"]) * 1e3,
        "snapshot.take_ms": median(s["take"]) * 1e3,
        "snapshot.restore_ms": median(s["restore"]) * 1e3,
        "snapshot.pickle_ms": median(s["pickle"]) * 1e3,
        "snapshot.unpickle_ms": median(s["unpickle"]) * 1e3,
        "snapshot.capsule_bytes": median(s["bytes"]),
    }
    for kind in ("short", "reject", "long"):
        out[f"serve.rtt_ms.{kind}"] = median(
            [o["rtt"] for o in outcomes if o["kind"] == kind]) * 1e3
    for program, (instrs, run_s) in replay["per_program"].items():
        out[f"cpu.mips.{program}"] = instrs / run_s / 1e6 if run_s else 0.0
    return out
