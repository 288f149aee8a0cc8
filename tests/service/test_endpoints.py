"""Endpoint round-trips against a live server on an ephemeral port."""

from __future__ import annotations

import json
import socket
import time

import pytest

import repro.service.server as server_module
from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.table import Column

from _service_helpers import (
    CITY_VALUES,
    LABELS,
    YEAR_VALUES,
    request,
    request_json,
    running_server,
)


def golden_label(values: list[str], name: str | None = None, seed: int = 0) -> str:
    """The sequential in-process label the service must reproduce."""
    annotator = ArcheType(
        ArcheTypeConfig(model="gpt", label_set=LABELS, seed=seed)
    )
    return annotator.annotate_column(Column(values=list(values), name=name)).label


class TestHealthz:
    def test_healthy_server_reports_ok(self):
        with running_server() as server:
            status, _, body = request_json(server.port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["pending"] == 0


class TestAnnotate:
    def test_single_column_matches_the_sequential_golden_path(self):
        with running_server() as server:
            status, _, body = request_json(
                server.port,
                "POST",
                "/v1/annotate",
                {"column": {"name": "place", "values": CITY_VALUES}},
            )
            assert status == 200
            assert body["label"] == golden_label(CITY_VALUES, name="place")
            assert body["index"] == 0
            assert body["column"] == "place"
            assert set(body) == {
                "index", "column", "label", "raw_response",
                "remapped", "rule_applied", "strategy",
            }

    def test_request_level_label_set_and_seed_override_defaults(self):
        with running_server() as server:
            status, _, body = request_json(
                server.port,
                "POST",
                "/v1/annotate",
                {
                    "column": {"values": YEAR_VALUES},
                    "label_set": list(LABELS),
                    "seed": 7,
                },
            )
            assert status == 200
            assert body["label"] == golden_label(YEAR_VALUES, seed=7)

    def test_batch_preserves_column_order(self):
        with running_server() as server:
            status, _, body = request_json(
                server.port,
                "POST",
                "/v1/annotate/batch",
                {
                    "columns": [
                        {"name": "a", "values": CITY_VALUES},
                        {"name": "b", "values": YEAR_VALUES},
                    ]
                },
            )
            assert status == 200
            assert body["n_columns"] == 2
            assert [r["index"] for r in body["results"]] == [0, 1]
            assert [r["column"] for r in body["results"]] == ["a", "b"]
            for result, values in zip(
                body["results"], (CITY_VALUES, YEAR_VALUES)
            ):
                assert result["label"] == golden_label(
                    values, name=result["column"]
                )


class TestStream:
    def test_ndjson_lines_in_order_with_done_trailer(self):
        with running_server() as server:
            status, headers, raw = request(
                server.port,
                "POST",
                "/v1/annotate/stream",
                {
                    "columns": [
                        {"values": CITY_VALUES},
                        {"values": YEAR_VALUES},
                    ],
                    "chunk_size": 1,
                },
            )
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            lines = [
                json.loads(line)
                for line in raw.decode("utf-8").splitlines()
                if line
            ]
            assert [line["index"] for line in lines[:-1]] == [0, 1]
            assert lines[-1] == {"done": True, "n_columns": 2}
            assert lines[0]["label"] == golden_label(CITY_VALUES)
            assert lines[1]["label"] == golden_label(YEAR_VALUES)


class TestProtocolErrors:
    def test_unknown_path_is_404(self):
        with running_server() as server:
            status, _, body = request_json(server.port, "GET", "/nope")
            assert status == 404
            assert body["error"]["status"] == 404

    def test_wrong_method_is_405(self):
        with running_server() as server:
            status, _, _ = request_json(server.port, "PUT", "/healthz")
            assert status == 405
            status, _, _ = request_json(server.port, "GET", "/v1/annotate")
            assert status == 405

    def test_invalid_json_is_400(self):
        with running_server() as server:
            status, _, body = request_json(
                server.port, "POST", "/v1/annotate", b"not json"
            )
            assert status == 400
            assert "JSON" in body["error"]["message"]

    def test_missing_label_set_without_default_is_400(self):
        with running_server(label_set=()) as server:
            status, _, body = request_json(
                server.port,
                "POST",
                "/v1/annotate",
                {"column": {"values": CITY_VALUES}},
            )
            assert status == 400
            assert "label_set" in body["error"]["message"]

    def test_oversized_body_is_413(self):
        with running_server(max_body_bytes=256) as server:
            status, _, body = request_json(
                server.port,
                "POST",
                "/v1/annotate",
                {"column": {"values": ["x" * 1024]}},
            )
            assert status == 413
            assert body["error"]["status"] == 413

    # 70 000 bytes is past the stream reader's 64 KiB buffer limit as well as
    # the server's own 16 KiB cap on a line of the request head.
    def test_over_long_request_line_is_400(self):
        with running_server() as server:
            status, _, body = request_json(
                server.port, "GET", "/healthz?pad=" + "a" * 70_000
            )
            assert status == 400
            assert body["error"]["message"] == "request line too long"

    def test_over_long_header_line_is_400(self):
        with running_server() as server:
            status, _, body = request_json(
                server.port, "GET", "/healthz", headers={"X-Pad": "a" * 70_000}
            )
            assert status == 400
            assert body["error"]["message"] == "header line too long"

    def test_empty_values_is_400(self):
        with running_server() as server:
            status, _, body = request_json(
                server.port,
                "POST",
                "/v1/annotate",
                {"column": {"values": []}},
            )
            assert status == 400
            assert "values" in body["error"]["message"]


#: A request whose head fails on its second line, 70 000 bytes long.
OVER_LONG_HEAD = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n"


def more_header_lines(n_bytes: int) -> bytes:
    line = b"X-More: " + b"b" * 990 + b"\r\n"
    return line * (n_bytes // len(line))


class TestLingeringClose:
    """An error answered before the request was read in full still reaches
    the client: the server half-closes and discards the rest, within bounds,
    instead of closing into a connection reset."""

    @pytest.mark.parametrize("extra", [100_000, 400_000])
    def test_error_response_then_eof_with_request_bytes_unread(self, extra):
        with running_server() as server, socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as client:
            client.sendall(OVER_LONG_HEAD + more_header_lines(extra))
            received = b""
            while chunk := client.recv(65536):
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
        assert len(body) == length
        assert json.loads(body)["error"]["message"] == "header line too long"

    @pytest.mark.parametrize("bound", ["bytes", "seconds"])
    def test_client_that_never_stops_sending_is_cut_off(self, monkeypatch, bound):
        # Lift the other bound, so only the one under test can end the linger.
        if bound == "bytes":
            monkeypatch.setattr(server_module, "_LINGER_MAX_SECONDS", 60.0)
            pause = 0.0
        else:
            monkeypatch.setattr(server_module, "_LINGER_MAX_BYTES", 1 << 40)
            pause = 0.01
        with running_server() as server, socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as client:
            client.sendall(OVER_LONG_HEAD)
            started = time.monotonic()
            with pytest.raises((BrokenPipeError, ConnectionResetError)):
                while time.monotonic() - started < 10:
                    client.sendall(more_header_lines(16_000))
                    time.sleep(pause)
            assert time.monotonic() - started < 10
