"""The asyncio HTTP server of the annotation service.

Hand-rolled HTTP/1.1 on ``asyncio.start_server`` — no web framework, in
keeping with the repo's stdlib-only rule.  The server understands exactly
what the protocol module defines: JSON request bodies sized by
``Content-Length`` (capped at ``max_body_bytes`` → 413), keep-alive
connections, fixed-length JSON responses, and chunked NDJSON for the stream
endpoint.  Everything semantic lives in :mod:`repro.service.handlers`; this
module only frames bytes and owns the lifecycle:

* **start** — bind (``port=0`` resolves an ephemeral port), start the
  scheduler drainers, accept connections;
* **drain** — on SIGTERM/SIGINT: stop admitting (new requests get 503),
  stop accepting, wait up to ``drain_timeout`` for in-flight requests to
  release, let their responses flush, then tear the engine down.  A drained
  exit is exit code 0 — the signal is the normal way to stop the service.

:class:`BackgroundServer` runs the same service on a dedicated event-loop
thread for in-process use (tests, the load generator's spawn mode).
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Callable

from repro.service.config import ServiceConfig
from repro.service.handlers import ServiceState, StreamingResponse
from repro.service.protocol import (
    REASONS,
    HTTPRequest,
    ProtocolError,
    Response,
    error_response,
)

__all__ = ["AnnotationService", "BackgroundServer", "run"]

_MAX_HEADER_LINE = 16 * 1024
_MAX_HEADERS = 100
#: Bounds on the input discarded after an error response, before the close.
_LINGER_MAX_BYTES = 1024 * 1024
_LINGER_MAX_SECONDS = 1.0


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line of the request head, at most ``_MAX_HEADER_LINE`` bytes."""
    try:
        line = await reader.readline()
    except ValueError:
        # A line past the reader's buffer limit: readline turns the
        # LimitOverrunError into ValueError and drops the buffered bytes.
        raise ProtocolError(f"{what} too long") from None
    if len(line) > _MAX_HEADER_LINE:
        raise ProtocolError(f"{what} too long")
    return line


async def _discard_input(reader: asyncio.StreamReader) -> None:
    """Read and drop input until EOF or either linger bound is reached.

    Closing a socket with request bytes still unread makes the kernel reset
    the connection, and the reset can destroy the response before the client
    has read it.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _LINGER_MAX_SECONDS
    discarded = 0
    while discarded < _LINGER_MAX_BYTES:
        try:
            chunk = await asyncio.wait_for(
                reader.read(64 * 1024), deadline - loop.time()
            )
        except asyncio.TimeoutError:
            return
        if not chunk:
            return
        discarded += len(chunk)


class AnnotationService:
    """One bound instance of the service: sockets + shared state."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state = ServiceState(config)
        self.host = config.host
        self.port = config.port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task[None]] = set()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind, resolve the ephemeral port, start scheduler drainers."""
        self.state.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, then tear down."""
        self.state.admission.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.state.admission.await_idle, self.config.drain_timeout
        )
        # Admission slots are released before the final bytes hit the socket;
        # give open connections a bounded moment to flush, then cut them.
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=1.0)
        for task in set(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        # shutdown() joins drainer threads and closes the store (sqlite/file
        # I/O) — off the loop, and on the default executor because it also
        # retires the service's own worker pool.
        await loop.run_in_executor(None, self.state.shutdown)

    # ------------------------------------------------------------- framing
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> HTTPRequest | None:
        """Parse one request; ``None`` on a cleanly closed connection."""
        try:
            line = await _read_line(reader, "request line")
        except ConnectionResetError:
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise ProtocolError("malformed HTTP request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = await _read_line(reader, "header line")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise ProtocolError(f"malformed header line: {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ProtocolError("too many headers")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(
                f"invalid Content-Length: {raw_length!r}"
            ) from None
        if length < 0:
            raise ProtocolError(f"invalid Content-Length: {raw_length!r}")
        if length > self.config.max_body_bytes:
            raise ProtocolError(
                f"request body exceeds {self.config.max_body_bytes} bytes",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return HTTPRequest(
            method=method.upper(), path=path, headers=headers, body=body
        )

    @staticmethod
    def _head(
        status: int,
        content_type: str,
        extra_headers: tuple[tuple[str, str], ...],
        *,
        content_length: int | None,
        keep_alive: bool,
    ) -> bytes:
        reason = REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if content_length is None:
            lines.append("Transfer-Encoding: chunked")
        else:
            lines.append(f"Content-Length: {content_length}")
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        writer.write(
            self._head(
                response.status,
                response.content_type,
                response.headers,
                content_length=len(response.body),
                keep_alive=keep_alive,
            )
        )
        writer.write(response.body)
        await writer.drain()

    async def _write_stream(
        self,
        writer: asyncio.StreamWriter,
        response: StreamingResponse,
        keep_alive: bool,
    ) -> None:
        writer.write(
            self._head(
                response.status,
                response.content_type,
                (),
                content_length=None,
                keep_alive=keep_alive,
            )
        )
        await writer.drain()
        async for line in response.lines:
            writer.write(f"{len(line):x}\r\n".encode("latin-1"))
            writer.write(line)
            writer.write(b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ---------------------------------------------------------- connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ProtocolError as exc:
                    await self._write_response(
                        writer,
                        error_response(exc.status, str(exc)),
                        keep_alive=False,
                    )
                    # The rest of the request is never read: half-close, so
                    # the client sees EOF after the response, then discard.
                    # Best effort: the connection is ending either way.
                    with contextlib.suppress(OSError):
                        writer.write_eof()
                        await _discard_input(reader)
                    return
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    return
                if request is None:
                    return
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                result = await self.state.dispatch(request)
                if isinstance(result, StreamingResponse):
                    await self._write_stream(writer, result, keep_alive)
                else:
                    await self._write_response(writer, result, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()


async def serve_until(
    config: ServiceConfig,
    stop: asyncio.Event,
    on_ready: "Callable[[AnnotationService], None] | None" = None,
) -> None:
    """Start a service, run until ``stop`` is set, then drain it."""
    # One-time startup: the store's sqlite connect happens before the socket
    # accepts traffic, so no request can be stalled behind it.
    service = AnnotationService(config)  # repro-lint: disable=async-blocking-call
    await service.start()
    if on_ready is not None:
        on_ready(service)
    try:
        await stop.wait()
    finally:
        await service.drain()


def run(config: ServiceConfig) -> int:
    """Foreground entry point used by ``repro serve``.

    Prints ``listening on http://host:port`` once bound (the line the load
    generator and the CI smoke job parse for the resolved ephemeral port)
    and exits 0 after a SIGTERM/SIGINT-triggered graceful drain.
    """

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                signal.signal(signum, lambda *_: stop.set())

        def announce(service: AnnotationService) -> None:
            print(
                f"listening on http://{service.host}:{service.port}",
                flush=True,
            )

        await serve_until(config, stop, on_ready=announce)

    asyncio.run(_main())
    return 0


class BackgroundServer:
    """The service on a dedicated event-loop thread (tests, load checks).

    Usage::

        with BackgroundServer(config) as server:
            ...  # http://127.0.0.1:{server.port}

    ``start`` blocks until the socket is bound and the resolved port is
    known; ``stop`` triggers the same graceful drain as SIGTERM.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: AnnotationService | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="annotation-service", daemon=True
        )

    @property
    def port(self) -> int:
        if self.service is None:
            raise RuntimeError("server is not running")
        return self.service.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def _run(self) -> None:
        # Startup handshake: the four attributes below are written on the
        # server thread strictly before ``self._ready.set()`` and read by the
        # starter thread only after ``self._ready.wait()`` — the Event's
        # release/acquire pairing orders them without a lock.
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()  # repro-lint: disable=thread-escape
            self._stop = asyncio.Event()  # repro-lint: disable=thread-escape

            def announce(service: AnnotationService) -> None:
                self.service = service  # repro-lint: disable=thread-escape
                self._ready.set()

            await serve_until(self.config, self._stop, on_ready=announce)

        try:
            asyncio.run(_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc  # repro-lint: disable=thread-escape
            self._ready.set()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("annotation service failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"annotation service failed to start: {self._error!r}"
            ) from self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            stop = self._stop
            self._loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=30)
        if self._thread.is_alive():  # pragma: no cover - drain wedged
            raise RuntimeError("annotation service did not stop in time")

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
