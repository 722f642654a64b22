"""The serving workloads: ``stream-push`` and ``cohort-jobs``.

Both drive a real ``python -m repro serve`` subprocess over HTTP from
this one process, with one load thread holding one connection at a
time.

``stream-push`` runs live estimation streams (4 glucose channels, one
day of 5-minute samples) advanced one sample per
``POST /streams/{id}/readings``.  Phase 1 is an open loop at a fixed
push rate; latency is timed from each push's due time.  Phase 2 is a
closed loop, one stream at a time, for capacity; its streams run in
pauses of the open loop, so both phases span the whole run.

``cohort-jobs`` is a closed loop with one client and one job in flight:
each round submits a 1200-channel monitor job, a 960-channel smoothed
estimation job and a 256-patient Bayesian therapy job, polls each to
done, then fetches the estimation result with its traces.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import time
from dataclasses import dataclass

from common import (
    FAILED_LATENCY,
    Tally,
    boot_median,
    close_enough,
    derived_seeds,
    http_request,
    median,
    quantile,
    scrape_sums,
)
from tracing import NULL_TRACER

#: One live stream: 4 wearers' glucose, one day of 5-minute samples.
STREAM_SPEC = {
    "cohort": {"sensor": "glucose/this-work", "analyte": "glucose",
               "n_patients": 4, "wander_sigma_a": 2e-9},
    "duration_h": 24.0,
    "sample_period_s": 300.0,
    "recalibration": {"reference_interval_h": 6.0, "tolerance": 0.08},
    "smooth": True,
    "interval_level": 0.95,
}
STREAM_CHANNELS = 4
STREAM_SAMPLES = 288

#: Connections the stream-push load holds at once: one, from one
#: thread.  The server runs an event loop and a pool thread per push, so
#: a second load thread makes three runnable threads on a 2-CPU host.
#: Measured on a 2-vCPU VM over alternating 13-s phases, two threads
#: spread the open-loop p50 by 17 % (IQR/median) and one thread by 4 %;
#: closed-loop capacity 16 % against 7 %.
STREAM_CONNECTIONS = 1

#: Open-loop push rate [pushes/s]: 800 readings/s, 40-50 % of the
#: 1.6k-2k readings/s one-connection closed-loop capacity measured on a
#: 2-vCPU VM.
#: Fixed, never measured, so every commit sees the same offered load.
PUSH_RATE = 200.0

#: Open-loop pushes are grouped by due time into windows this long
#: [s]; ``push_p50_ms`` is the median of the windows' p50s, so a burst
#: of host noise moves at most the windows it falls in.
WINDOW_S = 2.0

#: Streams live at once in the open loop; a new stream starts every
#: ``STREAM_SAMPLES / CONCURRENT_STREAMS`` pushes, so lifecycles overlap.
CONCURRENT_STREAMS = 4

#: An open-loop run is invalid when the generator itself falls behind:
#: when its median lateness waking for due pushes (measured only for
#: pushes it was idle before) exceeds this share of the median push
#: latency it is measuring.  The p99 lateness is reported, not gated:
#: on a shared host its tail follows host scheduling jitter, which
#: delays the server just as much, not generator saturation.
LATE_LIMIT_SHARE = 0.1

#: Job status poll period [s] in cohort-jobs: fine enough to time a
#: 0.1 s job, coarse enough that polls take little from the job.
POLL_S = 0.01

#: Boots per run; the median boot is ``setup_s``.
BOOTS = 3


def _call(tracer, tally: Tally, name: str, port: int, method: str,
          path: str, body=None) -> "bytes | None":
    """One counted request; the body on 2xx, None on any failure."""
    try:
        with tracer.span(name):
            status, payload = http_request(port, method, path, body)
        ok = tally.record(status < 300, f"{method} {path}: {status}")
    except OSError as error:
        ok = tally.record(False, f"{method} {path}: {error}")
    with tally.lock:
        tally.requests += 1
        tally.request_failures += not ok
    return payload if ok else None


# -- stream-push --------------------------------------------------------


def stream_scenario(name: str, seed: int) -> dict:
    return {"schema_version": 1, "workload": "estimation", "name": name,
            "seed": seed, "description": "", "spec": STREAM_SPEC}


@dataclass
class _Stream:
    scenario: dict
    stream_id: "str | None" = None
    result: "bytes | None" = None


def _open(stream: _Stream, port, tracer, tally) -> bool:
    body = _call(tracer, tally, "serve.server.open_stream", port, "POST",
                 "/streams", stream.scenario)
    if body is not None:
        stream.stream_id = json.loads(body)["stream_id"]
    return body is not None


def _finish(stream: _Stream, port, tracer, tally,
            result_times: list) -> None:
    started = time.perf_counter()
    stream.result = _call(tracer, tally, "serve.server.stream_result",
                          port, "GET",
                          f"/streams/{stream.stream_id}/result")
    result_times.append(time.perf_counter() - started)
    _call(tracer, tally, "serve.server.delete_stream", port, "DELETE",
          f"/streams/{stream.stream_id}")


def _push(stream: _Stream, port, tracer, tally) -> bool:
    if stream.stream_id is None:
        tally.record(False, "push to a stream that never opened")
        return False
    return _call(tracer, tally, "serve.server.push", port, "POST",
                 f"/streams/{stream.stream_id}/readings",
                 {"count": 1}) is not None


def _closed_stream(stream: _Stream, port, tracer, tally,
                   result_times: list) -> "tuple[int, float]":
    """Run one stream back to back, each push sent when the last one is
    answered; ``(pushes delivered, seconds from open to delete)``."""
    started = time.perf_counter()
    delivered = 0
    if _open(stream, port, tracer, tally):
        for _ in range(STREAM_SAMPLES):
            delivered += _push(stream, port, tracer, tally)
        _finish(stream, port, tracer, tally, result_times)
    return delivered, time.perf_counter() - started


def stream_phases(port: int, opened: "list[_Stream]",
                  closed: "list[_Stream]", tracer, tally: Tally) -> dict:
    """The open loop, paused now and then for one closed-loop stream.

    Open loop: stream ``j`` starts ``j * STREAM_SAMPLES /
    CONCURRENT_STREAMS`` push slots after the first and pushes once per
    ``CONCURRENT_STREAMS`` slots of ``1 / PUSH_RATE`` s; it is opened,
    and its result fetched and deleted, in line.  Latency is timed from
    each push's due time.

    Closed loop: the ``closed`` streams run one at a time, spread evenly
    through the open-loop schedule, which stops for each and resumes
    where it left off.  Both phases so span the whole run: the host's
    speed drifts over tens of seconds, and a phase run at one end of the
    run would see only that end.
    """
    slot = 1.0 / PUSH_RATE
    stagger = STREAM_SAMPLES // CONCURRENT_STREAMS
    events = sorted(
        (((stagger * j + p) * CONCURRENT_STREAMS + j % CONCURRENT_STREAMS)
         * slot, j, p)
        for j in range(len(opened)) for p in range(STREAM_SAMPLES))
    every = len(events) / (len(closed) + 1)
    pauses = {round(every * (index + 1)): stream
              for index, stream in enumerate(closed)}
    latencies: "list[tuple[float, float]]" = []
    late: "list[float]" = []
    rates: "list[float]" = []
    result_times: "list[float]" = []
    closed_pushes = 0
    start = time.perf_counter() + 0.05
    for index, (offset, j, p) in enumerate(events):
        if index in pauses:
            delivered, seconds = _closed_stream(
                pauses[index], port, tracer, tally, result_times)
            closed_pushes += delivered
            rates.append(delivered * STREAM_CHANNELS / seconds)
            start = time.perf_counter() + 0.05 - offset
        stream = opened[j]
        if p == 0:
            _open(stream, port, tracer, tally)
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0.0:
            time.sleep(wait)
            late.append(time.perf_counter() - due)
        ok = _push(stream, port, tracer, tally)
        latencies.append((offset, time.perf_counter() - due if ok
                          else FAILED_LATENCY))
        if p == STREAM_SAMPLES - 1 and stream.stream_id is not None:
            _finish(stream, port, tracer, tally, result_times)
    return {"latencies": latencies, "late": late, "rates": rates,
            "closed_pushes": closed_pushes, "result_times": result_times}


def _healthz(port: int, tracer, tally: Tally) -> "list[float]":
    """200 bare ``/healthz`` round trips, in seconds."""
    times = []
    for _ in range(200):
        started = time.perf_counter()
        _call(tracer, tally, "serve.server.healthz", port, "GET",
              "/healthz")
        times.append(time.perf_counter() - started)
    return times


@contextlib.contextmanager
def quiet_client():
    """Keep the load generator's garbage collection out of its timings.

    Runs no collection inside the block: the heap is collected before
    it and after it, never in the middle of a timed request.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def stream_sizes(seconds: float) -> "tuple[int, int]":
    """Open-loop and closed-loop stream counts for a run.

    Half of the measured seconds go to the open loop (a new stream
    starts every ``STREAM_SAMPLES / PUSH_RATE`` seconds and each lasts
    ``CONCURRENT_STREAMS`` times that) and 35 % to the closed loop (a
    stream takes ~0.75 s on the one connection).  Capacity, a median of
    per-stream rates, gets the larger share of streams because it
    spread more from run to run than the open-loop p50.
    """
    step = STREAM_SAMPLES / PUSH_RATE
    lifetime = CONCURRENT_STREAMS * step
    return (max(CONCURRENT_STREAMS,
                round((0.5 * seconds - lifetime) / step) + 1),
            max(2, round(0.35 * seconds / 0.75)))


def check_streams(streams: "list[_Stream]", tally: Tally) -> None:
    """Every stream result equals an in-process run to <= 1e-9."""
    from repro.scenarios import Scenario, ScenarioRun, run_scenario

    for stream in streams:
        if stream.result is None:
            continue
        scenario = Scenario.from_dict(stream.scenario)
        expected = json.loads(json.dumps(ScenarioRun(
            scenario=scenario, result=run_scenario(scenario)).to_dict()))
        problems = close_enough(expected, json.loads(stream.result))
        tally.record(not problems,
                     f"{scenario.name}: {'; '.join(problems[:3])}")


def stream_load(port: int, seed: int, seconds: float,
                tracer=NULL_TRACER) -> dict:
    """Warm up, run both phases, return raw samples and counts.

    ``push_handle_s`` is the server's mean handling time over every
    push of both phases, scraped before and after them.
    """
    n_open, n_closed = stream_sizes(seconds)
    seeds = derived_seeds(seed, "stream-push", n_open + n_closed + 1)
    warm = _Stream(stream_scenario("warm-up", seeds[-1]))
    tally = Tally()
    _open(warm, port, NULL_TRACER, tally)
    for _ in range(3):
        _push(warm, port, NULL_TRACER, tally)
    _call(NULL_TRACER, tally, "warm-up", port, "DELETE",
          f"/streams/{warm.stream_id}")
    healthz = _healthz(port, tracer, tally)
    opened = [_Stream(stream_scenario(f"open-{j:03d}", seeds[j]))
              for j in range(n_open)]
    closed = [_Stream(stream_scenario(f"closed-{j:03d}",
                                      seeds[n_open + j]))
              for j in range(n_closed)]
    handle_before = scrape_sums(
        port, "repro_serve_request_seconds",
        {"method": "POST", "endpoint": "/streams/*/readings"})
    with quiet_client():
        phases = stream_phases(port, opened, closed, tracer, tally)
    handle_after = scrape_sums(
        port, "repro_serve_request_seconds",
        {"method": "POST", "endpoint": "/streams/*/readings"})
    pushes = handle_after[1] - handle_before[1]
    open_pushes = sum(map(math.isfinite, (
        latency for _, latency in phases["latencies"])))
    return {
        "tally": tally,
        "streams": opened + closed,
        "healthz_s": healthz,
        "latencies_s": [latency for _, latency in phases["latencies"]],
        "window_p50_s": _window_medians(phases["latencies"]),
        "late_s": phases["late"],
        "result_s": phases["result_times"],
        "readings_per_s": median(phases["rates"]),
        "readings_pushed": ((open_pushes + phases["closed_pushes"])
                            * STREAM_CHANNELS),
        "push_handle_s": ((handle_after[0] - handle_before[0]) / pushes
                          if pushes else 0.0),
    }


def _window_medians(timed: "list[tuple[float, float]]") -> "list[float]":
    """p50 latency of each :data:`WINDOW_S` window of due times."""
    windows: "dict[int, list[float]]" = {}
    for offset, latency in timed:
        windows.setdefault(int(offset // WINDOW_S), []).append(latency)
    return [quantile(values, 0.5) for values in windows.values()]


def stream_figures(load: dict) -> dict:
    """The workload's user-facing figures from one load's samples."""
    late = load["late_s"] or [0.0]
    return {
        "push_p50_ms": median(load["window_p50_s"]) * 1e3,
        "push_p99_ms": quantile(load["latencies_s"], 0.99) * 1e3,
        "readings_per_s": load["readings_per_s"],
        "late_p50_ms": quantile(late, 0.5) * 1e3,
        "late_p99_ms": quantile(late, 0.99) * 1e3,
        "healthz_ms": median(load["healthz_s"]) * 1e3,
        "stream_result_ms": median(load["result_s"]) * 1e3,
        "push_handle_ms": load["push_handle_s"] * 1e3,
    }


def run_stream_push(seed: int, seconds: float, tracer=None) -> dict:
    """The ``stream-push`` workload (traced when ``tracer`` is given).

    A traced run boots once per pass and measures an untraced and a
    traced pass of half the length each, so their difference is the
    tracing overhead.
    """
    passes = ([("untraced", NULL_TRACER, seconds)] if tracer is None
              else [("untraced", NULL_TRACER, seconds / 2),
                    ("traced", tracer, seconds / 2)])
    boots = BOOTS if tracer is None else 1
    outcome = {"passes": {}}
    for label, pass_tracer, pass_seconds in passes:
        server, boot_times = boot_median(f"stream-push-{label}", boots)
        with server:
            load = stream_load(server.port, seed, pass_seconds,
                               pass_tracer)
            peak = server.peak_rss_mb()
        check_streams(load["streams"], load["tally"])
        figures = stream_figures(load)
        late, push = figures["late_p50_ms"], figures["push_p50_ms"]
        load["tally"].record(
            late <= LATE_LIMIT_SHARE * push,
            f"open loop invalid: generator late p50 {late:.2f} ms "
            f"> {LATE_LIMIT_SHARE} x push p50 {push:.2f} ms")
        outcome["passes"][label] = {
            "setup_s": boot_times, "peak_rss_mb": peak, "load": load,
            "figures": figures}
    return outcome


# -- cohort-jobs ----------------------------------------------------------


def cohort_scenarios(seed: int) -> "dict[str, dict]":
    """The three job scenarios of one run (fixed for all its rounds)."""
    monitor_seed, estimation_seed, therapy_seed, cohort_seed = \
        derived_seeds(seed, "cohort-jobs", 4)
    estimation = dict(STREAM_SPEC)
    estimation["cohort"] = dict(STREAM_SPEC["cohort"], n_patients=960)
    envelope = {"schema_version": 1, "description": ""}
    return {
        "monitor": {**envelope, "workload": "monitor",
                    "name": "cohort-monitor", "seed": monitor_seed,
                    "spec": {"cohort": {"sensor": "glucose/this-work",
                                        "analyte": "glucose",
                                        "n_patients": 1200},
                             "duration_h": 24.0,
                             "sample_period_s": 300.0,
                             "keep_traces": False}},
        "estimation": {**envelope, "workload": "estimation",
                       "name": "cohort-estimation",
                       "seed": estimation_seed, "spec": estimation},
        "therapy": {**envelope, "workload": "therapy",
                    "name": "cohort-therapy", "seed": therapy_seed,
                    "spec": {"drug": "cyclosporine", "n_patients": 256,
                             "cohort_seed": cohort_seed % 10_000,
                             "controller": {"kind": "bayesian"},
                             "n_doses": 6, "dose_interval_h": 12.0,
                             "sample_period_s": 900.0,
                             "keep_traces": False}},
    }


def _job(port, scenario, tracer, tally) -> "tuple[str | None, float]":
    """Submit one job and poll it to done; ``(job_id, seconds)``."""
    started = time.perf_counter()
    with tracer.span("client.job", workload=scenario["workload"]):
        body = _call(tracer, tally, "serve.server.submit", port, "POST",
                     "/scenarios", scenario)
        if body is None:
            return None, FAILED_LATENCY
        job_id = json.loads(body)["job_id"]
        while True:
            body = _call(tracer, tally, "serve.server.poll", port, "GET",
                         f"/scenarios/{job_id}")
            status = json.loads(body)["status"] if body else "failed"
            if status in ("done", "failed"):
                break
            time.sleep(POLL_S)
    ok = tally.record(status == "done", f"job {job_id} {status}")
    return (job_id if ok else None), (time.perf_counter() - started
                                      if ok else FAILED_LATENCY)


def cohort_load(port: int, seed: int, rounds: int,
                tracer=NULL_TRACER) -> dict:
    """Run ``rounds`` study rounds; check every row after the load."""
    scenarios = cohort_scenarios(seed)
    tally = Tally()
    samples: "dict[str, list[float]]" = {
        kind: [] for kind in ("monitor", "estimation", "therapy",
                              "fetch", "round")}
    rows: "dict[str, list]" = {kind: [] for kind in scenarios}
    readings: "list[float]" = []
    _warm_up_jobs(port, scenarios, tally)
    healthz = _healthz(port, tracer, tally)
    execute_before = {kind: scrape_sums(port, "repro_core_execute_seconds",
                                        {"workload": kind})
                      for kind in scenarios}
    for _ in range(rounds):
        with quiet_client():
            started = time.perf_counter()
            ids = {}
            for kind, scenario in scenarios.items():
                ids[kind], seconds = _job(port, scenario, tracer, tally)
                samples[kind].append(seconds)
            fetched = None
            if ids["estimation"] is not None:
                fetch_started = time.perf_counter()
                fetched = _call(tracer, tally, "serve.server.job_result",
                                port, "GET",
                                f"/scenarios/{ids['estimation']}/result"
                                "?traces=1")
                samples["fetch"].append(time.perf_counter() - fetch_started
                                        if fetched else FAILED_LATENCY)
            samples["round"].append(time.perf_counter() - started
                                    if fetched else FAILED_LATENCY)
        # untimed: the small results and the trace payload's rows
        if fetched is not None:
            rows["estimation"].append(_without_traces(
                json.loads(fetched)["result"]))
            del fetched
        for kind in ("monitor", "therapy"):
            if ids[kind] is not None:
                body = _call(NULL_TRACER, tally, "job-result", port, "GET",
                             f"/scenarios/{ids[kind]}/result")
                if body is not None:
                    rows[kind].append(json.loads(body)["result"])
        done = [rows[kind][-1] for kind in scenarios if rows[kind]]
        job_s = sum(samples[kind][-1] for kind in scenarios)
        if len(done) == 3 and math.isfinite(job_s):
            readings.append(sum(row.get("n_channels", row.get(
                "n_patients", 0)) * row["n_samples"] for row in done)
                / job_s)
    execute = {}
    for kind in scenarios:
        total, count = scrape_sums(port, "repro_core_execute_seconds",
                                   {"workload": kind})
        before_total, before_count = execute_before[kind]
        execute[kind] = ((total - before_total) / (count - before_count)
                         if count > before_count else 0.0)
    return {"tally": tally, "samples": samples, "rows": rows,
            "readings_per_s": readings, "execute_s": execute,
            "scenarios": scenarios, "healthz_s": healthz}


def _warm_up_jobs(port: int, scenarios: dict, tally: Tally) -> None:
    """Run each job kind once at 4 channels, untimed, and fetch its
    traces, so lazy imports and first-call costs stay out of round 1."""
    for kind, scenario in scenarios.items():
        small = json.loads(json.dumps(scenario))
        if kind == "therapy":
            small["spec"]["n_patients"] = 4
        else:
            small["spec"]["cohort"]["n_patients"] = 4
        job_id, _ = _job(port, small, NULL_TRACER, tally)
        if job_id is not None:
            _call(NULL_TRACER, tally, "warm-up", port, "GET",
                  f"/scenarios/{job_id}/result?traces=1")


def _without_traces(result: dict) -> dict:
    """A result's scalar fields plus the shape of its smoothed traces."""
    traces = result.get("smoothed_concentration_molar", [])
    row = {key: value for key, value in result.items()
           if not isinstance(value, list)}
    row["trace_shape"] = [len(traces), len(traces[0]) if traces else 0]
    return row


def check_cohort(load: dict) -> None:
    """Every fetched summary row equals its in-process replay."""
    from repro.scenarios import Scenario, run_scenario

    tally = load["tally"]
    for kind, scenario in load["scenarios"].items():
        expected = json.loads(json.dumps(run_scenario(
            Scenario.from_dict(scenario)).summary_row()))
        for index, result in enumerate(load["rows"][kind]):
            row = {key: result.get(key) for key in expected}
            tally.record(row == expected,
                         f"{kind} round {index}: row differs from replay")
        if kind == "estimation":
            for index, result in enumerate(load["rows"][kind]):
                shape = result["trace_shape"]
                tally.record(shape == [expected["n_channels"],
                                       expected["n_samples"]],
                             f"estimation round {index}: traces {shape}")


def cohort_rounds(seconds: float) -> int:
    """Study rounds per run: one per ~4.5 s (a round takes ~4 s, plus
    the untimed check of its rows)."""
    return max(2, round(seconds / 4.5))


def cohort_figures(load: dict) -> dict:
    samples = load["samples"]
    return {
        "round_s": median(samples["round"]),
        "monitor_job_s": median(samples["monitor"]),
        "estimation_job_s": median(samples["estimation"]),
        "therapy_job_s": median(samples["therapy"]),
        "result_fetch_s": median(samples["fetch"]),
        "readings_per_s": (median(load["readings_per_s"])
                           if load["readings_per_s"] else 0.0),
        "healthz_ms": median(load["healthz_s"]) * 1e3,
    }


def run_cohort_jobs(seed: int, seconds: float, tracer=None) -> dict:
    """The ``cohort-jobs`` workload (traced when ``tracer`` is given)."""
    passes = ([("untraced", NULL_TRACER, seconds)] if tracer is None
              else [("untraced", NULL_TRACER, seconds / 2),
                    ("traced", tracer, seconds / 2)])
    boots = BOOTS if tracer is None else 1
    outcome = {"passes": {}}
    for label, pass_tracer, pass_seconds in passes:
        server, boot_times = boot_median(f"cohort-jobs-{label}", boots)
        with server:
            load = cohort_load(server.port, seed,
                               cohort_rounds(pass_seconds), pass_tracer)
            peak = server.peak_rss_mb()
        check_cohort(load)
        outcome["passes"][label] = {
            "setup_s": boot_times, "peak_rss_mb": peak, "load": load,
            "figures": cohort_figures(load)}
    return outcome
