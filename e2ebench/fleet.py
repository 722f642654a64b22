"""The ``campaign-fleet`` workload: many small shards through the runner.

Each run drives several identical campaigns through
:func:`repro.campaigns.run_campaign` with ``workers = nproc``: a few
hundred shards of the checked-in ``examples/campaigns/glucose_fleet.json``
base (4 patients, one day of 5-minute glucose readings each).  Shards
are small, so store opens and writes plus process dispatch weigh as
much as the monitor engine.
"""

from __future__ import annotations

import json
import math
import resource
import time

from common import OUT_DIR, Tally, derived_seeds, median
from tracing import NULL_TRACER

#: The base scenario of ``examples/campaigns/glucose_fleet.json``.
FLEET_BASE = {
    "description": "One day of five-minute glucose readings, four "
                   "patients per shard.",
    "name": "wear-day",
    "schema_version": 1,
    "seed": None,
    "spec": {"cohort": {"analyte": "glucose", "n_patients": 4,
                        "sensor": "glucose/this-work"},
             "duration_h": 24.0, "keep_traces": False,
             "sample_period_s": 300.0},
    "workload": "monitor",
}
SHARD_READINGS = 4 * 288

#: Shards per campaign.
SHARDS = 240

#: Shards per campaign whose stored row is replayed in process.
SAMPLED_ROWS = 8


def fleet_spec(seed: int, n_shards: int) -> dict:
    return {"schema_version": 1, "name": "fleet", "description": "",
            "seed": seed, "n_shards": n_shards, "max_retries": 0,
            "base": FLEET_BASE}


def campaigns_per_run(seconds: float) -> int:
    """Campaigns per run: one per ~1.5 s (a campaign takes ~1.3 s)."""
    return max(2, round(seconds / 1.5))


def _remove(path) -> None:
    for suffix in ("", "-wal", "-shm"):
        path.with_name(path.name + suffix).unlink(missing_ok=True)


def _campaign(spec, path, workers: int, tracer, tally: Tally) -> dict:
    """One campaign: its timings, counts and export."""
    from repro.campaigns import run_campaign
    from repro.campaigns.store import ArtifactStore

    started_wall = time.time()
    started = time.perf_counter()
    with tracer.span("campaigns.runner.run_campaign"):
        run_campaign(spec, path, workers=workers)
    wall = time.perf_counter() - started
    with ArtifactStore.open(path) as store:
        events = store.telemetry_events()
        export = store.export_json()
        counts = store.counts()
    running, latency = {}, {}
    busy = retried = 0.0
    for event in events:
        index = event["shard_index"]
        if event["event"] == "running":
            running[index] = event["wall_s"]
        elif event["event"] == "done":
            latency[index] = event["wall_s"] - running[index]
            busy += event["duration_s"]
        elif event["event"] == "failed":
            latency[index] = math.inf
        elif event["event"] == "queued" and event["payload"]:
            retried += 1
    for index in range(spec.n_shards):
        tally.record(latency.get(index, math.inf) < math.inf,
                     f"shard {index} not done")
    return {"wall_s": wall,
            "setup_s": min(running.values()) - started_wall,
            "latencies_s": list(latency.values()),
            "busy_ratio": busy / (wall * workers),
            "export": export, "counts": counts, "retried": retried}


def check_rows(path, seed: int, tally: Tally) -> None:
    """Sampled stored rows equal an in-process replay of their shard."""
    from repro.campaigns.store import ArtifactStore
    from repro.scenarios import run_scenario

    with ArtifactStore.open(path) as store:
        rows = {row["shard_index"]: row for row in store.export_rows()}
        for draw in derived_seeds(seed, "fleet-rows", SAMPLED_ROWS):
            index = draw % store.n_shards()
            expected = json.loads(json.dumps(run_scenario(
                store.shard_scenario(index)).summary_row()))
            tally.record(rows[index]["result"] == expected,
                         f"shard {index}: stored row differs from replay")


def fleet_load(seed: int, campaigns: int, workers: int, label: str,
               tracer=NULL_TRACER) -> dict:
    from repro.campaigns import CampaignSpec

    spec = CampaignSpec.from_dict(fleet_spec(seed, SHARDS))
    tally = Tally()
    runs = []
    first_path = None
    reference = None
    try:
        for number in range(campaigns):
            path = OUT_DIR / f"fleet-{label}-{seed}-{number}-" \
                             f"{time.time_ns()}.sqlite"
            run = _campaign(spec, path, workers, tracer, tally)
            if first_path is None:
                first_path, reference = path, run["export"]
            else:
                _remove(path)
                tally.record(run["export"] == reference,
                             f"campaign {number} export differs")
            del run["export"]
            runs.append(run)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        check_rows(first_path, seed, tally)
    finally:
        if first_path is not None:
            _remove(first_path)
    return {"tally": tally, "runs": runs,
            "peak_rss_mb": (own + workers * worker) / 1024.0}


def fleet_figures(load: dict) -> dict:
    runs = load["runs"]
    latencies = [value for run in runs for value in run["latencies_s"]]
    shards_per_s = median([SHARDS / run["wall_s"] for run in runs])
    return {
        "shards_per_s": shards_per_s,
        "readings_per_s": shards_per_s * SHARD_READINGS,
        "shard_p50_ms": median(latencies) * 1e3,
        "worker_busy_ratio": median([run["busy_ratio"] for run in runs]),
        "shards_done": sum(run["counts"]["done"] for run in runs),
        "shards_failed": sum(run["counts"]["failed"] for run in runs),
        "shards_retried": sum(run["retried"] for run in runs),
    }


def run_campaign_fleet(seed: int, seconds: float, workers: int,
                       tracer=None) -> dict:
    """The ``campaign-fleet`` workload (traced when ``tracer`` is given)."""
    passes = ([("untraced", NULL_TRACER, seconds)] if tracer is None
              else [("untraced", NULL_TRACER, seconds / 2),
                    ("traced", tracer, seconds / 2)])
    outcome = {"passes": {}}
    for label, pass_tracer, pass_seconds in passes:
        load = fleet_load(seed, campaigns_per_run(pass_seconds), workers,
                          label, pass_tracer)
        outcome["passes"][label] = {
            "setup_s": [run["setup_s"] for run in load["runs"]],
            "peak_rss_mb": load["peak_rss_mb"], "load": load,
            "figures": fleet_figures(load)}
    return outcome
