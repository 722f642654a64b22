"""Spans recorded from the benchmark's own files, and the layer probes.

A :class:`Tracer` owns a private :class:`repro.telemetry.InMemoryRecorder`
that is never installed with ``set_recorder``: the program keeps its
telemetry-off path in traced and untraced runs alike.  Spans come from
two places:

* the load generators wrap each HTTP call into the server
  (``serve.server.*``) and each job or campaign they wait on
  (``client.*``, ``campaigns.runner.run_campaign``);
* :func:`layer_probes` runs each layer's public functions in process at
  the workloads' sizes, with :func:`patched` wrapping the calls one
  layer makes into the next, so spans nest and self time per layer
  falls out.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

from common import OUT_DIR, ROOT, median, quantile

#: The program's layers, by module name; a span belongs to the longest
#: layer its name starts with.  ``client`` is the load generator.
LAYERS = ("serve.server", "serve.session", "scenarios", "engine.core",
          "engine.monitor", "engine.estimation", "engine.therapy",
          "inference.observation", "inference.kalman",
          "campaigns.runner", "campaigns.store", "client")


class _NullTracer:
    """Untraced runs: every span is the same reusable no-op."""

    _span = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._span


NULL_TRACER = _NullTracer()


class Tracer:
    """Spans in memory, written out as JSONL and Perfetto at the end."""

    def __init__(self) -> None:
        from repro.telemetry import InMemoryRecorder

        self.recorder = InMemoryRecorder()

    def span(self, name: str, **attrs):
        attrs["tid"] = threading.get_ident()
        return self.recorder.span(name, **attrs)

    def mark(self) -> int:
        """A position in the span list (see :meth:`since`)."""
        return len(self.recorder.spans)

    def since(self, mark: int, name: str) -> "list[float]":
        """Durations of spans called ``name`` recorded after ``mark``."""
        return [record.duration_s for record in self.recorder.spans[mark:]
                if record.name == name]

    def write(self, stem: str) -> "dict[str, str]":
        """Write ``<stem>.jsonl`` and ``<stem>.perfetto.json``."""
        from repro.telemetry import write_perfetto

        jsonl = self.recorder.write_jsonl(OUT_DIR / f"{stem}.jsonl")
        perfetto = write_perfetto(OUT_DIR / f"{stem}.perfetto.json",
                                  self.recorder.spans,
                                  process_name="e2ebench")
        return {"jsonl": str(jsonl.relative_to(ROOT)),
                "perfetto": str(perfetto.relative_to(ROOT))}


def layer_of(name: str) -> str:
    """The layer a span name belongs to (longest matching prefix)."""
    matches = [layer for layer in LAYERS
               if name == layer or name.startswith(layer + ".")]
    return max(matches, key=len) if matches else "client"


def self_times(spans) -> "dict[str, float]":
    """Seconds per layer not covered by a child span on the same thread."""
    totals = dict.fromkeys(LAYERS, 0.0)
    threads = defaultdict(list)
    for record in spans:
        threads[record.attrs.get("tid")].append(record)

    def close(entry) -> None:
        end, children, record = entry
        totals[layer_of(record.name)] += record.duration_s - children

    for group in threads.values():
        group.sort(key=lambda record: (record.start_s, -record.duration_s))
        stack: list = []
        for record in group:
            while stack and stack[-1][0] <= record.start_s:
                close(stack.pop())
            if stack:
                stack[-1][1] += record.duration_s
            stack.append([record.start_s + record.duration_s, 0.0,
                          record])
        while stack:
            close(stack.pop())
    return totals


def _wrap(tracer: Tracer, function, name: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap ``owner.attr`` in a span named ``name`` for each target.

    Functions, methods and classmethods are wrapped where the calling
    layer looks them up; every original is restored on exit.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            function = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = _wrap(tracer, function, name)
            setattr(owner, attr, classmethod(wrapper)
                    if isinstance(raw, classmethod) else wrapper)
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _targets():
    """Every inner layer call the probes time, by the caller's lookup."""
    import repro.campaigns.runner as campaign_runner
    import repro.engine.estimation as estimation
    import repro.engine.monitor as monitor
    import repro.engine.therapy as therapy
    import repro.scenarios.runner as scenario_runner
    import repro.scenarios.workloads as workloads
    from repro.campaigns.store import ArtifactStore
    from repro.serve.session import StreamSession

    kernel_sets = [(cls, f"engine.{layer}.{method}")
                   for cls, layer in ((monitor.MonitorKernels, "monitor"),
                                      (estimation.EstimationKernels,
                                       "estimation"),
                                      (therapy.TherapyKernels, "therapy"))
                   for method in ("init_state", "run_chunk", "finalize")]
    return [(cls, name.rsplit(".", 1)[1], name)
            for cls, name in kernel_sets] + [
        (estimation, "_monitor_chunk", "engine.monitor.run_chunk"),
        (monitor, "execute", "engine.core.execute"),
        (estimation, "execute", "engine.core.execute"),
        (therapy, "execute", "engine.core.execute"),
        (workloads, "run_monitor", "engine.monitor.run_monitor"),
        (workloads, "run_estimation", "engine.estimation.run_estimation"),
        (workloads, "run_therapy", "engine.therapy.run_therapy"),
        (estimation, "monitor_observation_model",
         "inference.observation.monitor_observation_model"),
        (estimation, "rail_censored_mask",
         "inference.observation.rail_censored_mask"),
        (estimation, "kalman_filter_batch",
         "inference.kalman.kalman_filter_batch"),
        (estimation, "rts_smoother_batch",
         "inference.kalman.rts_smoother_batch"),
        (scenario_runner, "run_scenario", "scenarios.run_scenario"),
        (scenario_runner.ScenarioRun, "to_dict", "scenarios.to_dict"),
        (StreamSession, "from_scenario", "serve.session.from_scenario"),
        (StreamSession, "advance", "serve.session.advance"),
        (StreamSession, "result", "serve.session.result"),
        (campaign_runner, "execute_shard",
         "campaigns.runner.execute_shard"),
        (ArtifactStore, "create", "campaigns.store.create"),
        (ArtifactStore, "open", "campaigns.store.open"),
        (ArtifactStore, "mark_running", "campaigns.store.mark_running"),
        (ArtifactStore, "record_result", "campaigns.store.record_result"),
        (ArtifactStore, "record_event", "campaigns.store.record_event"),
        (ArtifactStore, "export_json", "campaigns.store.export_json"),
    ]


#: Repetitions of each kernel-sized probe; metrics are their medians.
PROBE_REPEATS = 3

#: Shards of the in-process campaign probe.
PROBE_SHARDS = 24


def layer_probes(tracer: Tracer, seed: int) -> "dict[str, float]":
    """Time each layer's public functions in process; per-layer metrics.

    Sizes follow the workloads: the cohort-jobs scenarios for the
    engines, one stream-push scenario for the session, a small
    campaign of fleet shards (``workers=1``) for the runner and store.
    """
    import repro.scenarios.workloads as workloads
    from repro.campaigns import CampaignSpec, run_campaign
    from repro.scenarios import Scenario, ScenarioRun, workload_by_name
    from repro.serve.session import StreamSession

    from fleet import fleet_spec
    from serving import STREAM_SAMPLES, cohort_scenarios, stream_scenario

    metrics: "dict[str, float]" = {}
    scenarios = cohort_scenarios(seed)

    def timed(name: str, call):
        with tracer.span(name):
            return call()

    with patched(tracer, _targets()):
        plans = {}
        for kind, data in scenarios.items():
            workload = workload_by_name(kind)
            mark = tracer.mark()
            for _ in range(PROBE_REPEATS):
                plans[kind] = timed(
                    f"scenarios.build_plan.{kind}",
                    lambda: workload.build_plan(data["spec"],
                                                data["seed"]))
            metrics[f"scenarios.build_plan_ms.{kind}"] = median(
                tracer.since(mark, f"scenarios.build_plan.{kind}")) * 1e3

        mark = tracer.mark()
        for _ in range(PROBE_REPEATS):
            workloads.run_monitor(plans["monitor"])
        run_monitor_s = median(tracer.since(mark,
                                            "engine.monitor.run_monitor"))
        metrics["engine.monitor.run_monitor_s"] = run_monitor_s
        plan = plans["monitor"]
        metrics["engine.monitor.readings_per_s"] = (
            plan.n_channels * plan.n_samples / run_monitor_s)

        mark = tracer.mark()
        for _ in range(PROBE_REPEATS):
            estimated = workloads.run_estimation(plans["estimation"])
        for metric, name in (
                ("engine.estimation.run_estimation_s",
                 "engine.estimation.run_estimation"),
                ("inference.observation.model_s",
                 "inference.observation.monitor_observation_model"),
                ("inference.observation.censor_mask_s",
                 "inference.observation.rail_censored_mask"),
                ("inference.kalman.filter_s",
                 "inference.kalman.kalman_filter_batch"),
                ("inference.kalman.smoother_s",
                 "inference.kalman.rts_smoother_batch")):
            metrics[metric] = median(tracer.since(mark, name))

        run = ScenarioRun(scenario=Scenario.from_dict(
            scenarios["estimation"]), result=estimated)
        mark = tracer.mark()
        for _ in range(PROBE_REPEATS):
            run.to_dict(include_traces=True)
        metrics["scenarios.to_dict_s"] = median(
            tracer.since(mark, "scenarios.to_dict"))
        del run, estimated

        mark = tracer.mark()
        for _ in range(PROBE_REPEATS):
            workloads.run_therapy(plans["therapy"])
        metrics["engine.therapy.run_therapy_s"] = median(
            tracer.since(mark, "engine.therapy.run_therapy"))

        mark = tracer.mark()
        for index in range(PROBE_REPEATS):
            scenario = Scenario.from_dict(
                stream_scenario(f"probe-{index}", seed + index))
            session = StreamSession.from_scenario(scenario)
            for _ in range(STREAM_SAMPLES):
                session.advance(1)
            session.result()
        metrics["serve.session.open_ms"] = median(
            tracer.since(mark, "serve.session.from_scenario")) * 1e3
        metrics["serve.session.advance_ms"] = quantile(
            tracer.since(mark, "serve.session.advance"), 0.5) * 1e3
        metrics["serve.session.result_ms"] = median(
            tracer.since(mark, "serve.session.result")) * 1e3

        store_path = OUT_DIR / f"probe-{seed}-{time.time_ns()}.sqlite"
        spec = CampaignSpec.from_dict(fleet_spec(seed, PROBE_SHARDS))
        mark = tracer.mark()
        try:
            run_campaign(spec, store_path, workers=1)
            from repro.campaigns.store import ArtifactStore

            with ArtifactStore.open(store_path) as store:
                store.export_json()
        finally:
            for suffix in ("", "-wal", "-shm"):
                store_path.with_name(store_path.name + suffix).unlink(
                    missing_ok=True)
        for metric, name, scale, pick in (
                ("campaigns.runner.execute_shard_ms",
                 "campaigns.runner.execute_shard", 1e3, median),
                ("scenarios.run_scenario_ms", "scenarios.run_scenario",
                 1e3, median),
                ("campaigns.store.open_ms", "campaigns.store.open", 1e3,
                 median),
                ("campaigns.store.mark_running_ms",
                 "campaigns.store.mark_running", 1e3, median),
                ("campaigns.store.record_result_ms",
                 "campaigns.store.record_result", 1e3, median),
                ("campaigns.store.record_event_ms",
                 "campaigns.store.record_event", 1e3, median),
                ("campaigns.store.create_s", "campaigns.store.create", 1.0,
                 sum),
                ("campaigns.store.export_s", "campaigns.store.export_json",
                 1.0, sum)):
            metrics[metric] = pick(tracer.since(mark, name)) * scale
    return metrics
