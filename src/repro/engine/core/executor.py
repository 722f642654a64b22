"""The chunk executor: one loop that runs every workload.

:func:`execute` is the single execution path behind ``run_batch``,
``run_monitor``, ``run_therapy`` and ``run_estimation``.  It compiles
the declarative plan, builds the kernel set's carry state, then walks
the segment graph chunk by chunk:

    compile -> init_state
    for each segment:
        begin_segment
        for each chunk in segment:          # never crosses a boundary
            run_chunk(start, stop)
        end_segment
    finalize -> result

Because all cross-chunk information lives in the carry state and each
kernel consumes its random streams strictly in sample order, results
depend only on the plan (and its seed), never on the chunking policy —
the property the shared contract suite gates for every workload.

Observability rides on this one loop, so every workload — and any
future fifth kernel set — gets timing for free.  Two independent
layers, each with its own on/off switch:

* **Spans** (:func:`repro.telemetry.get_recorder` enabled): per-phase
  spans (``core.compile`` / ``core.init_state`` / ``core.segment`` /
  ``core.run_chunk`` / ``core.finalize``).
* **Metrics** (:func:`repro.telemetry.get_metrics_registry` enabled):
  per-workload ``repro_core_execute_seconds`` and
  ``repro_core_chunk_seconds`` latency histograms,
  ``repro_core_chunks_total`` / ``repro_core_samples_total`` throughput
  counters, and the kernel set's optional
  :meth:`~repro.engine.core.kernelset.KernelSet.describe_metrics`
  values as ``repro_core_kernel_events_total{workload,event}`` — the
  fleet-aggregable view ``campaign report`` and the serve front door
  expose.

When both are disabled — the default — :func:`execute` takes a branch
that never touches telemetry at all, so the hot loop is byte-for-byte
the uninstrumented one (gated to <= 3 % overhead in
``benchmarks/bench_core.py``; the *enabled*-metrics path carries its
own <= 3 % gate there too).
"""

from __future__ import annotations

import time

from repro.engine.core.kernelset import KernelSet
from repro.telemetry import get_metrics_registry, get_recorder
from repro.telemetry.metrics import exponential_buckets

#: Buckets for whole-``execute()`` latency: 1 ms doubling to ~65 s.
EXECUTE_BUCKETS_S = exponential_buckets(1e-3, 2.0, 17)

#: Buckets for per-chunk latency: 10 µs doubling to ~0.33 s.
CHUNK_BUCKETS_S = exponential_buckets(1e-5, 2.0, 16)


def execute(kernels: KernelSet, plan):
    """Run one declarative plan through its kernel set.

    Args:
        kernels: the workload's registered :class:`KernelSet`.
        plan: an instance of ``kernels.plan_type``.

    Returns:
        The workload's result object (``kernels.finalize``'s return),
        satisfying the scenario layer's ``ResultProtocol``.

    Raises:
        TypeError: if ``plan`` is not the plan type the kernel set
            compiles.
    """
    if not isinstance(plan, kernels.plan_type):
        raise TypeError(
            f"{kernels.name} kernels expect {kernels.plan_type.__name__}, "
            f"got {type(plan).__name__}")
    recorder = get_recorder()
    registry = get_metrics_registry()
    if not recorder.enabled and not registry.enabled:
        # The zero-cost default: identical to the pre-telemetry loop,
        # no per-chunk telemetry calls or allocations of any kind.
        compiled = kernels.compile(plan)
        state = kernels.init_state(plan)
        for segment in compiled.segments:
            kernels.begin_segment(plan, state, segment)
            for start in range(segment.start, segment.stop,
                               compiled.chunk_samples):
                stop = min(start + compiled.chunk_samples, segment.stop)
                kernels.run_chunk(plan, state, segment, start, stop)
            kernels.end_segment(plan, state, segment)
        return kernels.finalize(plan, state)
    return _execute_instrumented(kernels, plan, recorder, registry)


def _core_instruments(registry, workload: str):
    """The executor's per-workload metric series (get-or-create)."""
    labels = ("workload",)
    return (
        registry.histogram(
            "repro_core_execute_seconds",
            "End-to-end execute() latency per workload.",
            labels, buckets=EXECUTE_BUCKETS_S).labels(workload=workload),
        registry.histogram(
            "repro_core_chunk_seconds",
            "Per-chunk kernel latency per workload.",
            labels, buckets=CHUNK_BUCKETS_S).labels(workload=workload),
        registry.counter(
            "repro_core_chunks_total",
            "Chunks executed per workload.",
            labels).labels(workload=workload),
        registry.counter(
            "repro_core_samples_total",
            "Cells-times-samples processed per workload.",
            labels).labels(workload=workload),
    )


def _count_kernel_events(registry, kernels: KernelSet, plan,
                         result) -> None:
    """Add the kernel set's ``describe_metrics`` values to the registry."""
    events = registry.counter(
        "repro_core_kernel_events_total",
        "Workload-specific events per finished run (recalibrations, "
        "doses, ...), by workload and event.", ("workload", "event"))
    for event, value in kernels.describe_metrics(plan, result).items():
        events.labels(workload=kernels.name, event=event).inc(value)


def _execute_instrumented(kernels: KernelSet, plan, recorder, registry):
    """The same loop with spans and metrics around every phase."""
    workload = kernels.name
    metrics_on = registry.enabled
    if metrics_on:
        (execute_seconds, chunk_seconds, chunks_total,
         samples_total) = _core_instruments(registry, workload)
    execute_start = time.perf_counter()
    with recorder.span("core.execute", workload=workload):
        with recorder.span("core.compile", workload=workload):
            compiled = kernels.compile(plan)
        with recorder.span("core.init_state", workload=workload):
            state = kernels.init_state(plan)
        n_channels = compiled.n_channels
        for segment in compiled.segments:
            with recorder.span("core.segment", workload=workload,
                               segment=segment.index):
                kernels.begin_segment(plan, state, segment)
                for start in range(segment.start, segment.stop,
                                   compiled.chunk_samples):
                    stop = min(start + compiled.chunk_samples,
                               segment.stop)
                    chunk_start = time.perf_counter()
                    with recorder.span("core.run_chunk",
                                       workload=workload,
                                       segment=segment.index):
                        kernels.run_chunk(plan, state, segment, start,
                                          stop)
                    if metrics_on:
                        chunk_seconds.observe(
                            time.perf_counter() - chunk_start)
                        chunks_total.inc()
                        samples_total.inc(n_channels * (stop - start))
                kernels.end_segment(plan, state, segment)
        with recorder.span("core.finalize", workload=workload):
            result = kernels.finalize(plan, state)
    if metrics_on:
        execute_seconds.observe(time.perf_counter() - execute_start)
        _count_kernel_events(registry, kernels, plan, result)
    return result
