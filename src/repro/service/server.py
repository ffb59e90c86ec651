"""Stdlib HTTP front end for the service API.

A :class:`ServiceServer` wraps one :class:`~repro.service.api.ServiceApi`
in a :class:`http.server.ThreadingHTTPServer`: every request thread calls
``api.dispatch`` and writes the resulting :class:`Response` back out.
Fixed bodies go with ``Content-Length``, head and body in one ``sendall``
(two would leave the body waiting, on a kept-alive connection, for Nagle
and the client's delayed ACK: ~40 ms a response); telemetry streams go chunked
(``Transfer-Encoding: chunked``) so a watcher sees trace lines as the
simulation emits them.

No sockets are special-cased anywhere else: the HTTP layer is this file.
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .api import Response, ServiceApi
from .jobs import JobManager

__all__ = ["ServiceServer", "make_handler"]


def make_handler(api: ServiceApi, quiet: bool = True):
    """Build a request-handler class bound to one :class:`ServiceApi`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-service/1.0"

        def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
            if not quiet:
                super().log_message(fmt, *args)

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            return self.rfile.read(length) if length > 0 else b""

        def _dispatch(self) -> None:
            try:
                response = api.dispatch(self.command, self.path, self._read_body())
            except Exception as exc:  # an endpoint bug must not kill the thread
                response = Response(500, {"error": f"{type(exc).__name__}: {exc}"})
            try:
                if response.stream is not None:
                    self._write_stream(response)
                else:
                    self._write_body(response)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response
            finally:
                if response.after is not None:
                    response.after()

        def _write_body(self, response: Response) -> None:
            body = response.encoded()
            # The stdlib writes the head when it ends; catch it and send it
            # with the body, as one segment.
            sock_file, self.wfile = self.wfile, io.BytesIO()
            try:
                self.send_response(response.status)
                self.send_header("Content-Type", response.content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                head = self.wfile.getvalue()
            finally:
                self.wfile = sock_file
            self.wfile.write(head + body)

        def _write_stream(self, response: Response) -> None:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Connection", "close")
            self.end_headers()
            for chunk in response.stream:
                if not chunk:
                    continue
                self.wfile.write(f"{len(chunk):x}\r\n".encode("ascii"))
                self.wfile.write(chunk)
                self.wfile.write(b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
            self.close_connection = True

        do_GET = _dispatch  # noqa: N815 - stdlib dispatch-by-name
        do_POST = _dispatch  # noqa: N815
        do_DELETE = _dispatch  # noqa: N815
        do_PATCH = _dispatch  # noqa: N815

    return Handler


class ServiceServer:
    """One HTTP listener + job manager, with a clean shutdown path."""

    def __init__(self, manager: JobManager, host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True):
        self.manager = manager
        self.api = ServiceApi(manager, on_shutdown=self.request_shutdown)
        self.httpd = ThreadingHTTPServer((host, port), make_handler(self.api, quiet=quiet))
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()
        self._stopped = threading.Event()

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Serve in a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service-http", daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until a shutdown is requested."""
        self.start()
        self._shutdown_requested.wait()
        self.stop()

    def request_shutdown(self) -> None:
        """Asynchronous shutdown trigger (the ``POST /v1/shutdown`` hook).

        Tears down from a helper thread: ``httpd.shutdown()`` must never run
        on a request thread (it waits for the serve loop, which may be
        waiting on that very request), and the trigger must return so the
        202 response can still be written.
        """
        self._shutdown_requested.set()
        threading.Thread(target=self.stop, daemon=True).start()

    def stop(self) -> None:
        """Stop listening, cancel live jobs, reap the slots (idempotent)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._shutdown_requested.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.manager.shutdown()

    # ------------------------------------------------------------- test hook
    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def write_endpoint_file(path: str, address: str) -> None:
    """Record the listening address for out-of-band pickup (CI scripts)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"address": address}, handle)
        handle.write("\n")
