"""The serving metrics surface: exposition, correlation, collectors.

Boots the real server and gates the observability contracts:
``GET /metrics?format=prometheus`` emits valid exposition format 0.0.4
(round-tripped through :func:`~repro.telemetry.parse_prometheus`),
every response carries an ``X-Trace-Id`` that also lands in the span
trace and the latency histogram's exemplar, runtime collectors report
real RSS/GC levels, and the JSON ``/metrics`` payload is the
registry's own snapshot — the format ``telemetry summary`` renders.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.scenarios import Scenario
from repro.serve import ServeClient, ServerThread
from repro.telemetry import (
    InMemoryRecorder,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    require_snapshot,
    set_recorder,
)

SCENARIO = Scenario(
    workload="monitor", name="serve-metrics", seed=11,
    spec={"cohort": {"sensor": "glucose/this-work",
                     "analyte": "glucose", "n_patients": 2},
          "duration_h": 6.0, "sample_period_s": 600.0})


@pytest.fixture()
def served():
    """A private server + recorder pair, fully restored on teardown."""
    recorder = InMemoryRecorder()
    previous = set_recorder(recorder)
    registry = MetricsRegistry()
    try:
        with ServerThread(port=0, queue_size=16, workers=2,
                          registry=registry) as thread:
            yield ServeClient(thread.host, thread.port), \
                registry, recorder
    finally:
        set_recorder(previous)


def _run_one_job(client: ServeClient) -> dict:
    job = client.submit(SCENARIO.to_dict())
    client.wait_for_job(job["job_id"])
    return client.status(job["job_id"])


class TestPrometheusEndpoint:
    def test_round_trips_validator(self, served):
        client, registry, __ = served
        _run_one_job(client)
        text = client.metrics_prometheus()
        samples = parse_prometheus(text)
        names = {sample["name"] for sample in samples}
        assert "repro_serve_requests_total" in names
        assert "repro_serve_request_seconds_bucket" in names
        assert "repro_serve_jobs_total" in names
        assert "repro_process_resident_memory_bytes" in names
        # executor metrics from the job flow into the same scrape
        assert "repro_core_execute_seconds_bucket" in names

    def test_content_type_and_status(self, served):
        client, __, __ = served
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request("GET", "/metrics?format=prometheus")
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type") \
            == PROMETHEUS_CONTENT_TYPE
        parse_prometheus(body.decode("utf-8"))

    def test_unknown_format_is_400(self, served):
        client, __, __ = served
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request("GET", "/metrics?format=msgpack")
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "format" in payload["error"]

    def test_runtime_collectors_report_levels(self, served):
        client, registry, __ = served
        client.metrics_prometheus()  # forces a collection pass
        rss = registry.gauge("repro_process_resident_memory_bytes")
        assert rss.value > 1e6  # a real python process is > 1 MB
        snapshot = registry.snapshot()
        gc_series = snapshot["instruments"][
            "repro_python_gc_collections"]["series"]
        assert {row["labels"]["generation"] for row in gc_series} \
            == {"0", "1", "2"}


class TestTraceCorrelation:
    def test_every_response_carries_a_trace_id(self, served):
        client, __, __ = served
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        trace_id = response.getheader("X-Trace-Id")
        assert trace_id and len(trace_id) == 16

    def test_exemplar_and_span_share_the_job_trace(self, served):
        client, registry, recorder = served
        _run_one_job(client)
        hist = registry.histogram("repro_serve_request_seconds",
                                  labels=["method", "endpoint"])
        exemplars = {series.exemplar["trace_id"]
                     for __, series in hist.items()
                     if series.exemplar is not None}
        assert exemplars  # at least one request recorded an exemplar
        span_traces = {span.attrs.get("trace_id")
                       for span in recorder.spans
                       if span.name == "serve.request"}
        assert exemplars <= span_traces

    def test_job_spans_carry_the_submit_trace(self, served):
        client, __, recorder = served
        _run_one_job(client)
        job_spans = [span for span in recorder.spans
                     if span.name == "serve.job"]
        assert job_spans
        assert all(span.attrs.get("trace_id") for span in job_spans)


class TestLegacyJsonMetrics:
    def test_json_payload_derived_from_registry(self, served):
        client, registry, __ = served
        _run_one_job(client)
        payload = client.metrics()
        require_snapshot(payload)
        instruments = payload["instruments"]
        jobs = {series["labels"]["outcome"]: series["value"]
                for series in instruments["repro_serve_jobs_total"]["series"]
                if series["labels"]["workload"] == "monitor"}
        assert jobs == {"submitted": 1, "done": 1}
        assert any(series["labels"]["method"] == "GET" for series
                   in instruments["repro_serve_requests_total"]["series"])
        (depth,) = instruments["repro_serve_queue_depth"]["series"]
        assert depth["value"] == 0
        # The very snapshot the registry holds (runtime gauges refresh
        # on every scrape, so compare the counter families).
        snapshot = registry.snapshot()["instruments"]
        assert instruments["repro_serve_jobs_total"] == \
            snapshot["repro_serve_jobs_total"]
        assert "repro_core_kernel_events_total" in instruments
