"""The MSERVE asyncio HTTP front end (stdlib only).

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no dependency.  One request per connection (``Connection:
close``), JSON in, JSON out.

Routes::

    GET  /healthz    {"ok": true, "shards": N}
    GET  /workloads  the six named workloads + their descriptions
    GET  /metrics    the fleet snapshot (see Fleet.metrics)
    POST /run        run a workload / inline program (see repro.serve.api)

``POST /run`` validates the body (:func:`repro.serve.api.parse_request`)
and, for inline sources, runs the assembly + MAS-lint admission gate
(:func:`repro.serve.gate.admit_source`) *in the event loop process* —
rejected programs never consume a shard.  Admitted jobs are submitted
to the :class:`~repro.serve.fleet.Fleet` and the handler awaits the
future without blocking the loop, so hundreds of in-flight requests
interleave over however many shards the fleet runs.
"""

from __future__ import annotations

import asyncio
import itertools
import json

from repro.serve.api import ServeRejected, error_dict, parse_request

#: Largest accepted request body.
MAX_BODY_BYTES = 1 << 20

_job_counter = itertools.count(1)


def _json_response(status: int, payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed", 413: "Payload Too Large",
              500: "Internal Server Error"}.get(status, "OK")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode() + body


class ServeApp:
    """Route table + handlers over one :class:`Fleet`."""

    def __init__(self, fleet):
        self.fleet = fleet

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._dispatch(reader)
        except ServeRejected as exc:
            status, payload = 400, {"status": "error", "error": exc.error}
        except Exception as exc:  # noqa: BLE001 — server must not die
            status, payload = 500, {
                "status": "error",
                "error": error_dict("shard_failure",
                                    f"{type(exc).__name__}: {exc}")}
        try:
            writer.write(_json_response(status, payload))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"status": "error",
                         "error": error_dict("bad_request", "empty request")}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"status": "error",
                         "error": error_dict("bad_request",
                                             "malformed request line")}
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]

        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length < 0:
            return 400, {"status": "error",
                         "error": error_dict("bad_request",
                                             "negative Content-Length")}
        if content_length > MAX_BODY_BYTES:
            return 413, {"status": "error",
                         "error": error_dict("bad_request",
                                             "request body too large")}
        body = (await reader.readexactly(content_length)
                if content_length else b"")

        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "shards": self.fleet.config.shards,
                         "mode": self.fleet.config.mode}
        if method == "GET" and path == "/workloads":
            return 200, self._workloads()
        if method == "GET" and path == "/metrics":
            return 200, self.fleet.metrics()
        if method == "POST" and path == "/run":
            return await self._run(body)
        if path in ("/healthz", "/workloads", "/metrics", "/run"):
            return 405, {"status": "error",
                         "error": error_dict("bad_request",
                                             f"{method} not allowed here")}
        return 404, {"status": "error",
                     "error": error_dict("bad_request",
                                         f"no route {path!r}")}

    def _workloads(self) -> dict:
        from repro.profile.workloads import WORKLOADS

        return {"workloads": {
            w.name: {"description": w.description,
                     "default_iters": w.default_iters}
            for w in WORKLOADS.values()
        }}

    async def _run(self, body: bytes):
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            raise ServeRejected(error_dict("bad_request",
                                           "body is not valid JSON"))
        job_id = f"job-{next(_job_counter)}"
        spec = parse_request(payload, job_id,
                             default_budget=self.fleet.config.default_budget)
        lint_warnings = None
        if spec.kind == "source":
            # Admission gate runs off-loop: assembly + CFG lint are CPU
            # work, and a rejected program must never reach a shard.
            from repro.machine.builder import DEFAULT_RAM_BYTES
            from repro.serve.gate import admit_source

            lint_warnings = await asyncio.get_running_loop().run_in_executor(
                None, lambda: admit_source(spec, DEFAULT_RAM_BYTES))
        response = await asyncio.wrap_future(self.fleet.submit(spec))
        if lint_warnings:
            response["lint_warnings"] = lint_warnings
        return (200 if response.get("status") == "ok" else 400), response


async def start_server(fleet, host: str = "127.0.0.1", port: int = 8765):
    """Bind the app; returns the ``asyncio.Server`` (caller closes)."""
    app = ServeApp(fleet)
    return await asyncio.start_server(app.handle, host=host, port=port)
