"""The campaign service's HTTP surface (``repro serve``).

A thin, hardened JSON shim over :class:`~repro.service.coordinator.
Coordinator` -- every route is one locked coordinator call, so the
transport adds no semantics.  Built on the same stdlib
:class:`~http.server.ThreadingHTTPServer` idiom as the status server
and hardened the same way: per-connection socket timeouts, bounded
request *and* response bodies, and no per-request stderr noise.

Routes::

    POST /api/campaigns     {"spec": {...}}        -> campaign summary
                            (429 + Retry-After under back-pressure,
                             400 for an unresolvable spec)
    GET  /api/campaigns/K                          -> full view + report
    POST /api/lease         {"worker": "..."}      -> lease or retry_after
    POST /api/heartbeat     {"lease": "..."}       -> {"ok": bool}
    POST /api/shard-result  {lease,campaign,shard,
                             records|error,worker} -> {"accepted": bool}
    GET  /status                                   -> service document
    GET  /metrics                                  -> Prometheus text
    GET  /healthz                                  -> {"ok": true}

A background **ticker** thread calls ``coordinator.tick()`` every
quarter-lease, so leases expire (and shards get rescheduled) even when
no request happens to arrive -- expiry must not depend on traffic.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from ..obs.prom import render_prometheus
from ..obs.server import MAX_RESPONSE_BYTES, SOCKET_TIMEOUT
from .coordinator import BackPressure, Coordinator
from .protocol import SpecError

#: Hard ceiling on a request body.  The largest legitimate payload is
#: a shard result (a few hundred small records); megabytes mean a
#: confused or hostile client.
MAX_REQUEST_BYTES = 8 * 1024 * 1024


class _ServiceHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    #: Same per-connection hardening as the status server: a stalled
    #: client times out instead of parking a handler thread forever.
    timeout = SOCKET_TIMEOUT
    #: Buffer each response and send it when the request is done, so
    #: headers and body leave in one write rather than two segments a
    #: client's single read can split.
    wbufsize = -1

    coordinator: Coordinator  # bound per-server by ServiceServer

    def log_message(self, *_args: Any) -> None:
        """Silence per-request stderr logging."""

    def handle(self) -> None:
        try:
            super().handle()
        except (TimeoutError, OSError):
            self.close_connection = True

    # -- plumbing ----------------------------------------------------

    def _send(
        self,
        code: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
        body: Optional[str] = None,
    ) -> None:
        if body is None:
            body = json.dumps(payload, sort_keys=True) + "\n"
        data = body.encode("utf-8")
        if len(data) > MAX_RESPONSE_BYTES:
            data = json.dumps({
                "error": f"response exceeds {MAX_RESPONSE_BYTES} bytes"
            }).encode("utf-8") + b"\n"
            code, content_type = 500, "application/json"
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> Tuple[Optional[Any], Optional[str]]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None, "bad Content-Length"
        if length > MAX_REQUEST_BYTES:
            return None, (
                f"request body exceeds {MAX_REQUEST_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}, None
        try:
            return json.loads(raw), None
        except ValueError:
            return None, "request body is not valid JSON"

    # -- routes ------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        payload, error = self._read_json()
        if error is None and not isinstance(payload, dict):
            error = "request body must be a JSON object"
        if error is not None:
            self._send(400, {"error": error})
            return
        coordinator = type(self).coordinator
        try:
            if path == "/api/campaigns":
                try:
                    view = coordinator.submit(payload.get("spec"))
                except SpecError as exc:
                    self._send(400, {"error": str(exc)})
                    return
                except BackPressure as exc:
                    self._send(
                        429,
                        {
                            "error": str(exc),
                            "retry_after": exc.retry_after,
                        },
                        headers={
                            "Retry-After": str(
                                max(1, int(exc.retry_after))
                            )
                        },
                    )
                    return
                self._send(200, view)
            elif path == "/api/lease":
                worker = payload.get("worker") or "anonymous"
                self._send(200, coordinator.lease(str(worker)))
            elif path == "/api/heartbeat":
                self._send(
                    200, coordinator.heartbeat(payload.get("lease"))
                )
            elif path == "/api/shard-result":
                self._send(200, coordinator.report_shard(payload))
            else:
                self._send(404, {"error": f"no route POST {path}"})
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self._send(500, {"error": repr(exc)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        coordinator = type(self).coordinator
        try:
            if path.startswith("/api/campaigns/"):
                key = path[len("/api/campaigns/"):]
                view = coordinator.campaign_view(key)
                if view is None:
                    self._send(
                        404, {"error": f"unknown campaign {key}"}
                    )
                else:
                    self._send(200, view)
            elif path == "/status":
                self._send(200, coordinator.status())
            elif path == "/metrics":
                from ..obs.metrics import get_registry

                self._send(
                    200,
                    {},
                    content_type=(
                        "text/plain; version=0.0.4; charset=utf-8"
                    ),
                    body=render_prometheus(get_registry().dump()),
                )
            elif path == "/healthz":
                self._send(200, {"ok": True})
            elif path == "/":
                self._send(200, {
                    "endpoints": [
                        "/api/campaigns",
                        "/api/lease",
                        "/api/heartbeat",
                        "/api/shard-result",
                        "/status",
                        "/metrics",
                        "/healthz",
                    ]
                })
            else:
                self._send(404, {"error": f"no route GET {path}"})
        except Exception as exc:  # noqa: BLE001 - report, don't die
            self._send(500, {"error": repr(exc)})


class ServiceServer:
    """The coordinator behind a threaded HTTP server plus a ticker.

    ``port=0`` binds an ephemeral port (``.url`` reports it); stop()
    is idempotent and also stops the ticker.  Usable as a context
    manager in tests.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: Optional[float] = None,
    ) -> None:
        self.coordinator = coordinator
        handler = type(
            "_BoundServiceHandler",
            (_ServiceHandler,),
            {"coordinator": coordinator},
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self.tick_interval = tick_interval or max(
            0.05, min(1.0, coordinator.lease_seconds / 4)
        )
        self._thread: Optional[threading.Thread] = None
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.tick_interval):
            try:
                self.coordinator.tick()
            except Exception:  # noqa: BLE001 - the ticker must survive
                pass

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        self._ticker = threading.Thread(
            target=self._tick_loop,
            name="repro-service-ticker",
            daemon=True,
        )
        self._ticker.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._ticker is not None:
            self._ticker.join(timeout=5)
            self._ticker = None
        self.coordinator.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
