"""Executor instrumentation: spans and metrics for every workload.

One chunk loop serves all registered kernel sets, so instrumenting it
once gives every workload — and any future fifth — timing for free.
These tests pin what the loop emits (phase spans on the recorder;
chunk/sample counters and the kernel set's ``describe_metrics`` events
on the metrics registry) and, most importantly, that instrumentation
never changes results: the instrumented run is bit-identical to the
disabled one.
"""

import numpy as np

from repro.engine.core import kernels_for, registered_workloads, run_workload
from repro.telemetry import (
    NULL_METRICS,
    NULL_RECORDER,
    InMemoryRecorder,
    MetricsRegistry,
    set_metrics_registry,
    set_recorder,
)


def run_instrumented(workload, plan, recorder=None, registry=None):
    """Run ``plan`` under a fresh recorder and metrics registry.

    Returns ``(result, recorder, registry)``; pass ``NULL_RECORDER`` or
    ``NULL_METRICS`` to leave one layer disabled.
    """
    recorder = InMemoryRecorder() if recorder is None else recorder
    registry = MetricsRegistry() if registry is None else registry
    previous = set_recorder(recorder)
    previous_registry = set_metrics_registry(registry)
    try:
        result = run_workload(workload, plan)
    finally:
        set_recorder(previous)
        set_metrics_registry(previous_registry)
    return result, recorder, registry


def kernel_events(registry, workload):
    """``{event: value}`` of ``repro_core_kernel_events_total``."""
    entry = registry.snapshot()["instruments"].get(
        "repro_core_kernel_events_total", {"series": []})
    return {series["labels"]["event"]: series["value"]
            for series in entry["series"]
            if series["labels"]["workload"] == workload}


class TestCoreSpans:
    def test_monitor_run_emits_phase_spans(self):
        plan = kernels_for("monitor").contract_plan()
        __, recorder, __ = run_instrumented("monitor", plan)
        names = {record.name for record in recorder.spans}
        assert {"core.execute", "core.compile", "core.init_state",
                "core.segment", "core.run_chunk",
                "core.finalize"} <= names
        execute = [r for r in recorder.spans
                   if r.name == "core.execute"]
        assert len(execute) == 1
        assert execute[0].attrs == {"workload": "monitor"}
        assert execute[0].depth == 0

    def test_chunk_and_sample_counters_add_up(self):
        kernels = kernels_for("monitor")
        plan = kernels.contract_plan()
        __, recorder, registry = run_instrumented("monitor", plan)
        compiled = kernels.compile(plan)
        n_samples = sum(segment.stop - segment.start
                        for segment in compiled.segments)
        chunk_spans = [r for r in recorder.spans
                       if r.name == "core.run_chunk"]
        labels = {"workload": "monitor"}
        assert registry.counter("repro_core_chunks_total", labels=(
            "workload",)).labels(**labels).value == len(chunk_spans)
        assert registry.counter("repro_core_samples_total", labels=(
            "workload",)).labels(**labels).value == \
            compiled.n_channels * n_samples

    def test_run_chunk_spans_carry_segment_index(self):
        plan = kernels_for("therapy").contract_plan()
        __, recorder, __ = run_instrumented("therapy", plan)
        segments = {record.attrs["segment"]
                    for record in recorder.spans
                    if record.name == "core.segment"}
        assert segments == {0, 1, 2}  # three dose intervals

    def test_every_registered_workload_gets_spans(self):
        for workload in registered_workloads():
            plan = kernels_for(workload).contract_plan()
            __, recorder, __ = run_instrumented(workload, plan)
            names = {record.name for record in recorder.spans}
            assert "core.execute" in names, workload
            assert "core.run_chunk" in names, workload


class TestDescribeMetrics:
    def test_monitor_metrics_land_as_counters(self):
        plan = kernels_for("monitor").contract_plan()
        result, __, registry = run_instrumented("monitor", plan)
        events = kernel_events(registry, "monitor")
        assert events["recalibrations"] == \
            int(np.sum(result.n_recalibrations))
        assert "rail_censored_samples" in events
        # Readings are the executor's samples counter, not an event.
        assert "readings" not in events

    def test_therapy_metrics_land_as_counters(self):
        plan = kernels_for("therapy").contract_plan()
        result, __, registry = run_instrumented("therapy", plan)
        events = kernel_events(registry, "therapy")
        assert events["doses"] == result.doses_mol.size
        assert events["doses_adjusted"] == \
            int(np.sum(np.diff(result.doses_mol, axis=1) != 0.0))

    def test_events_need_an_enabled_registry(self, monkeypatch):
        """Spans alone never pay for ``describe_metrics``."""
        kernels = kernels_for("monitor")
        calls = []
        monkeypatch.setattr(
            type(kernels), "describe_metrics",
            lambda self, plan, result: calls.append(plan) or {})
        plan = kernels.contract_plan()
        __, recorder, __ = run_instrumented("monitor", plan,
                                            registry=NULL_METRICS)
        assert recorder.spans and calls == []
        run_instrumented("monitor", plan, recorder=NULL_RECORDER)
        assert calls == [plan]

    def test_default_describe_metrics_is_empty(self):
        kernels = kernels_for("calibration")
        assert kernels.describe_metrics(None, None) == {}


class TestInstrumentationIsInert:
    def test_instrumented_result_bit_identical_to_disabled(self):
        plan = kernels_for("monitor").contract_plan()
        baseline = run_workload("monitor", plan)
        instrumented, __, __ = run_instrumented("monitor", plan)
        np.testing.assert_array_equal(
            baseline.measured_current_a,
            instrumented.measured_current_a)
        np.testing.assert_array_equal(baseline.mard, instrumented.mard)
        np.testing.assert_array_equal(baseline.n_recalibrations,
                                      instrumented.n_recalibrations)
