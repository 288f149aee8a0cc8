"""Cross-socket sharing: in-flight dedup and cross-request batching."""

from __future__ import annotations

import threading

from repro.core.pipeline import ArcheType, ArcheTypeConfig
from repro.core.table import Column

from _service_helpers import (
    CITY_VALUES,
    LABELS,
    YEAR_VALUES,
    request_json,
    running_server,
)


def _post_concurrently(port: int, bodies: list[dict]) -> list[dict]:
    """POST every body from its own thread, released by one barrier."""
    barrier = threading.Barrier(len(bodies))
    results: list[dict | None] = [None] * len(bodies)

    def one(index: int) -> None:
        barrier.wait()
        status, _, body = request_json(
            port, "POST", "/v1/annotate", bodies[index]
        )
        assert status == 200
        results[index] = body

    threads = [
        threading.Thread(target=one, args=(index,))
        for index in range(len(bodies))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(result is not None for result in results)
    return [result for result in results if result is not None]


class TestCrossSocketSharing:
    def test_duplicate_prompts_across_sockets_issue_one_model_call(self):
        # The model is slow and the linger window wide, so two identical
        # requests from different sockets overlap: the second must coalesce
        # onto the first's in-flight future (or hit the LRU), never the
        # model.
        golden = ArcheType(
            ArcheTypeConfig(model="gpt", label_set=LABELS, seed=0)
        )
        golden.annotate_column(Column(values=list(CITY_VALUES)))
        expected_queries = golden.query_count

        with running_server(
            model_latency=0.2, max_batch_wait=0.1, workers=4
        ) as server:
            body = {"column": {"values": CITY_VALUES}}
            results = _post_concurrently(server.port, [body, body])
            assert results[0]["label"] == results[1]["label"]
            _, _, stats = request_json(server.port, "GET", "/stats")
            # Exactly the sequential golden path's query count: the
            # duplicate was absorbed by the shared warm tier.
            assert stats["queries"]["n_queries"] == expected_queries
            hits = (
                stats["queries"]["n_cache_hits"]
                + stats["queries"]["n_inflight_hits"]
            )
            assert hits >= 1

    def test_distinct_concurrent_requests_coalesce_into_one_batch(self):
        # The first column finds the model idle and leaves at once; the
        # others arrive while it is at the model, so their leader lingers
        # and they leave the scheduler as one cross-request model batch.
        with running_server(
            model_latency=0.2, max_batch_wait=0.25, workers=4
        ) as server:
            results = _post_concurrently(
                server.port,
                [
                    {"column": {"values": CITY_VALUES}},
                    {"column": {"values": YEAR_VALUES}},
                    {"column": {"values": ["a@b.com", "c@d.org"]}},
                ],
            )
            assert len(results) == 3
            _, _, stats = request_json(server.port, "GET", "/stats")
            scheduler = stats["scheduler"]
            assert scheduler["n_cross_request_batches"] >= 1
            assert max(map(int, scheduler["batch_size_histogram"])) >= 2

    def test_labels_under_concurrency_match_the_sequential_golden_path(self):
        columns = [CITY_VALUES, YEAR_VALUES, ["a@b.com", "c@d.org"],
                   ["true", "false", "true"]]
        golden_labels = []
        for values in columns:
            annotator = ArcheType(
                ArcheTypeConfig(model="gpt", label_set=LABELS, seed=0)
            )
            golden_labels.append(
                annotator.annotate_column(Column(values=list(values))).label
            )
        with running_server(
            model_latency=0.02, max_batch_wait=0.05, workers=8
        ) as server:
            bodies = [{"column": {"values": values}} for values in columns]
            results = _post_concurrently(server.port, bodies)
            assert [result["label"] for result in results] == golden_labels
