"""End-to-end benchmark of the serve -> engine -> campaign stack.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload stream-push --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``stream-push`` (many tiny HTTP pushes into live estimation
streams), ``cohort-jobs`` (few large jobs and one 31.6 MB result) and
``campaign-fleet`` (many small campaign shards).  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run; the last line of standard output is the JSON result.  Artifacts
(the full result record with provenance, traces) land in
``e2ebench/out/``.  Exit codes: 0 when every output check passed, 1
when one failed or the run crashed, 2 when the checkout holds no
program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import signal
import subprocess
import sys
import time

from common import OUT_DIR, ROOT, BenchError, bootstrap, load_threads

WORKLOADS = ("stream-push", "cohort-jobs", "campaign-fleet")

#: The figures each workload's users read, printed by name and unit
#: above the result line (not part of the JSON result).
USER_FIGURES = {
    "stream-push": (("setup_s", "s"), ("push_p50_ms", "ms"),
                    ("push_p99_ms", "ms"), ("readings_per_s", "1/s"),
                    ("peak_rss_mb", "MB"), ("error_rate", "ratio")),
    "cohort-jobs": (("setup_s", "s"), ("monitor_job_s", "s"),
                    ("estimation_job_s", "s"), ("therapy_job_s", "s"),
                    ("result_fetch_s", "s"), ("peak_rss_mb", "MB"),
                    ("error_rate", "ratio")),
    "campaign-fleet": (("setup_s", "s"), ("shards_per_s", "1/s"),
                       ("peak_rss_mb", "MB"), ("error_rate", "ratio")),
}


def _source_digest() -> str:
    """SHA-256 over the program's sources (the checkout is not a repo)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(args, threads: int) -> dict:
    import numpy
    import scipy

    from common import SERVER_SETTINGS
    from fleet import SHARDS, campaigns_per_run
    from serving import (
        CONCURRENT_STREAMS,
        LATE_LIMIT_SHARE,
        POLL_S,
        PUSH_RATE,
        STREAM_CHANNELS,
        STREAM_CONNECTIONS,
        STREAM_SAMPLES,
        cohort_rounds,
        stream_sizes,
    )

    # a traced run measures two passes of half the seconds each
    seconds = args.seconds / 2 if args.trace else args.seconds
    n_open, n_closed = stream_sizes(seconds)
    work = {"stream-push": {"open_loop_streams": n_open,
                            "closed_loop_streams": n_closed},
            "cohort-jobs": {"rounds": cohort_rounds(seconds)},
            "campaign-fleet": {"campaigns": campaigns_per_run(seconds)}}

    return {
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "nproc": threads, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "connections": {"stream-push": STREAM_CONNECTIONS,
                        "cohort-jobs": 1,
                        "campaign-fleet": 0}[args.workload],
        "campaign_workers": threads,
        "cohort_sizes": {"stream_channels": STREAM_CHANNELS,
                         "stream_samples": STREAM_SAMPLES,
                         "monitor_channels": 1200,
                         "estimation_channels": 960,
                         "therapy_patients": 256,
                         "campaign_shards": SHARDS,
                         "shard_channels": 4},
        "work_per_pass": work[args.workload],
        "push_rate_per_s": PUSH_RATE,
        "concurrent_streams": CONCURRENT_STREAMS,
        "late_limit_share": LATE_LIMIT_SHARE, "poll_s": POLL_S,
        "server": SERVER_SETTINGS,
    }


def _figures(workload: str, measured: dict) -> dict:
    """Per-workload figures, by the names and units users read."""
    from common import median

    figures = dict(measured["figures"])
    figures["setup_s"] = median(measured["setup_s"])
    figures["peak_rss_mb"] = measured["peak_rss_mb"]
    tally = measured["load"]["tally"]
    figures["error_rate"] = tally.failed / max(1, tally.attempted)
    if workload == "cohort-jobs":
        figures["latency_p50_ms"] = figures["round_s"] * 1e3
    elif workload == "stream-push":
        figures["latency_p50_ms"] = figures["push_p50_ms"]
    else:
        figures["latency_p50_ms"] = figures["shard_p50_ms"]
    return figures


def end_to_end(workload: str, measured: dict,
               declared: "dict[str, str]") -> dict:
    """The same five end-to-end metrics for every workload."""
    figures = _figures(workload, measured)
    values = {"setup_s": figures["setup_s"],
              "latency_p50_ms": figures["latency_p50_ms"],
              "readings_per_s": figures["readings_per_s"],
              "peak_rss_mb": figures["peak_rss_mb"],
              "success_ratio": 1.0 - figures["error_rate"]}
    return _as_declared(values, declared, missing=None)


def _as_declared(values: dict, declared: "dict[str, str]",
                 missing: "float | None") -> dict:
    """``values`` as the result's metrics, exactly the declared names.

    Raises :class:`BenchError` for a measured name ``BENCHMARK.json``
    does not declare, or, with ``missing=None``, for a declared name
    that was not measured.
    """
    unknown = set(values) - set(declared)
    absent = set(declared) - set(values)
    if unknown or (absent and missing is None):
        raise BenchError(f"metrics out of step with BENCHMARK.json: "
                         f"undeclared {sorted(unknown)}, "
                         f"unmeasured {sorted(absent)}")
    return {name: {"value": float(values.get(name, missing)),
                   "unit": unit}
            for name, unit in declared.items()}


def per_layer(workload: str, outcome: dict, tracer, probes: dict,
              declared: "dict[str, str]") -> dict:
    """Every per-layer metric; 0 where this workload has no such path
    (its counts read 0 too)."""
    from tracing import self_times

    untraced = _figures(workload, outcome["passes"]["untraced"])
    traced_pass = outcome["passes"]["traced"]
    traced = _figures(workload, traced_pass)
    load = traced_pass["load"]
    values = dict(probes)
    values["trace.overhead_pct"] = 100.0 * (
        traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0)
    for layer, seconds in self_times(tracer.recorder.spans).items():
        values[f"{layer}.self_s"] = seconds
    tally = load["tally"]
    values["client.requests_sent"] = tally.requests
    values["client.requests_failed"] = tally.request_failures
    values["client.requests_ok"] = (values["client.requests_sent"]
                                    - values["client.requests_failed"])
    if workload == "stream-push":
        for name in ("push_p50_ms", "push_p99_ms", "late_p99_ms"):
            values[f"client.{name}"] = traced[name]
        values["client.readings_pushed"] = load["readings_pushed"]
        values["serve.server.healthz_ms"] = traced["healthz_ms"]
        values["serve.server.push_handle_ms"] = traced["push_handle_ms"]
        values["serve.server.push_outside_ms"] = (
            traced["push_p50_ms"] - traced["push_handle_ms"])
        values["serve.server.stream_result_ms"] = traced["stream_result_ms"]
    elif workload == "cohort-jobs":
        samples = load["samples"]
        for kind in ("monitor", "estimation", "therapy"):
            job_s = traced[f"{kind}_job_s"]
            values[f"client.{kind}_job_s"] = job_s
            values[f"serve.server.job_overhead_ms.{kind}"] = (
                job_s - load["execute_s"][kind]) * 1e3
        jobs = [value for kind in ("monitor", "estimation", "therapy")
                for value in samples[kind]]
        values["client.jobs_done"] = sum(map(math.isfinite, jobs))
        values["client.jobs_failed"] = len(jobs) - values["client.jobs_done"]
        values["client.result_fetch_s"] = traced["result_fetch_s"]
        values["serve.server.result_encode_s"] = (
            traced["result_fetch_s"] - probes["scenarios.to_dict_s"])
        values["serve.server.healthz_ms"] = traced["healthz_ms"]
    else:
        values["client.shards_per_s"] = traced["shards_per_s"]
        values["campaigns.runner.worker_busy_ratio"] = \
            traced["worker_busy_ratio"]
        for name in ("shards_done", "shards_failed", "shards_retried"):
            values[f"campaigns.runner.{name}"] = traced[name]
    return _as_declared(values, declared, missing=0.0)


def _declared() -> "tuple[dict, dict]":
    """The metric names and units ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
            {entry["name"]: entry["unit"] for entry in spec["per_layer"]})


def run(args) -> int:
    bootstrap()
    from fleet import run_campaign_fleet
    from serving import run_cohort_jobs, run_stream_push
    from tracing import Tracer, layer_probes

    declared_e2e, declared_layers = _declared()
    threads = load_threads()
    tracer = Tracer() if args.trace else None
    print(f"e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    started = time.perf_counter()
    if args.workload == "stream-push":
        outcome = run_stream_push(args.seed, args.seconds, tracer)
    elif args.workload == "cohort-jobs":
        outcome = run_cohort_jobs(args.seed, args.seconds, tracer)
    else:
        outcome = run_campaign_fleet(args.seed, args.seconds, threads,
                                     tracer)
    tallies = [measured["load"]["tally"]
               for measured in outcome["passes"].values()]
    record = {"provenance": provenance(args, threads)}
    if tracer is None:
        measured = outcome["passes"]["untraced"]
        metrics = end_to_end(args.workload, measured, declared_e2e)
        figures = _figures(args.workload, measured)
        for name, unit in USER_FIGURES[args.workload]:
            print(f"  {name:<20} {figures[name]:>14.6g} {unit}")
        record["figures"] = figures
    else:
        probes = layer_probes(tracer, args.seed)
        metrics = per_layer(args.workload, outcome, tracer, probes,
                            declared_layers)
        record["trace_files"] = tracer.write(
            f"trace-{args.workload}-{args.seed}")
        for name, entry in metrics.items():
            print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}")
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    problems = [problem for tally in tallies for problem in tally.problems]
    for problem in problems:
        print(f"  FAILED {problem}")
    record["elapsed_s"] = time.perf_counter() - started
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}"
               ".json").write_text(json.dumps(record, indent=2,
                                              default=str) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(args)
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
