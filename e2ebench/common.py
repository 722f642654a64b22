"""Shared plumbing of the end-to-end benchmark.

Locates the program's sources in the checkout, derives workload inputs
from the seed, talks HTTP to a serving process, boots and stops that
process, and summarizes samples.  Nothing here imports the program at
module import time: :func:`bootstrap` puts ``src/`` on ``sys.path``
first and fails cleanly when the checkout has no sources.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of ``e2ebench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave their artifacts (result records, traces, stores).
OUT_DIR = ROOT / "e2ebench" / "out"

#: Latency recorded for a failed or refused request: it misses any
#: latency limit, so it sorts above every measured value.
FAILED_LATENCY = math.inf

#: Serving-process settings every serving workload uses (the CLI
#: defaults, spelled out so provenance records them).
SERVER_SETTINGS = {"host": "127.0.0.1", "queue_size": 16, "workers": 2,
                   "per_workload": 2}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, server never booted)."""


@dataclass
class Tally:
    """Operations attempted and failed, plus what went wrong."""

    attempted: int = 0
    failed: int = 0
    requests: int = 0
    request_failures: int = 0
    problems: "list[str]" = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock,
                                 repr=False)

    def record(self, ok: bool, problem: str = "") -> bool:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(problem)
        return ok


def bootstrap() -> Path:
    """Make ``src/`` importable; raise :class:`BenchError` without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return src


def load_threads() -> int:
    """Threads and connections the load generator may use: ``nproc``."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # not Linux
        return max(1, os.cpu_count() or 1)


def derived_seeds(seed: int, stream: str, n: int) -> "list[int]":
    """``n`` scenario seeds for one input stream of a workload seed."""
    import numpy as np

    key = [seed] + [ord(char) for char in stream]
    state = np.random.SeedSequence(key).generate_state(n, np.uint32)
    return [int(value) for value in state]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); inf-aware."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    if math.isinf(ordered[above]):
        return ordered[above] if position > below else ordered[below]
    weight = position - below
    return ordered[below] * (1.0 - weight) + ordered[above] * weight


def median(values) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


# -- HTTP ---------------------------------------------------------------


def http_request(port: int, method: str, path: str,
                 body: "dict | None" = None,
                 timeout_s: float = 60.0) -> "tuple[int, bytes]":
    """One request on a fresh connection; returns ``(status, body)``.

    The server closes every connection after its response, so each
    request pays its own connect, as a device pushing a reading would.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout_s)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = ({"Content-Type": "application/json"}
                   if payload is not None else {})
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def free_port() -> int:
    """A TCP port nothing listens on right now."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def scrape_sums(port: int, family: str,
                match: "dict[str, str]") -> "tuple[float, float]":
    """``(sum, count)`` of one histogram series from the Prometheus page.

    Reads ``{family}_sum`` / ``{family}_count`` whose labels include
    every ``match`` pair.
    """
    from repro.telemetry import parse_prometheus

    status, body = http_request(port, "GET", "/metrics?format=prometheus")
    if status != 200:
        raise BenchError(f"metrics scrape answered {status}")
    total = count = 0.0
    for sample in parse_prometheus(body.decode("utf-8")):
        labels = sample["labels"]
        if any(labels.get(key) != value for key, value in match.items()):
            continue
        if sample["name"] == f"{family}_sum":
            total += sample["value"]
        elif sample["name"] == f"{family}_count":
            count += sample["value"]
    return total, count


class ServerProcess:
    """One ``python -m repro serve`` subprocess, booted and stopped.

    :meth:`boot` returns the seconds from spawn until ``/healthz``
    answers 200 (the ``setup_s`` sample); :meth:`stop` sends SIGTERM
    (the CLI maps it to a clean shutdown), waits, and kills as a last
    resort, so no process outlives the run.
    """

    def __init__(self, log_name: str) -> None:
        self.port = free_port()
        self.log_path = OUT_DIR / log_name
        self.process: "subprocess.Popen | None" = None

    def boot(self, timeout_s: float = 60.0) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        for name in ("REPRO_TELEMETRY", "REPRO_METRICS",
                     "REPRO_TELEMETRY_TRACE"):
            env.pop(name, None)
        command = [sys.executable, "-m", "repro", "serve",
                   "--host", SERVER_SETTINGS["host"],
                   "--port", str(self.port),
                   "--queue-size", str(SERVER_SETTINGS["queue_size"]),
                   "--workers", str(SERVER_SETTINGS["workers"]),
                   "--per-workload", str(SERVER_SETTINGS["per_workload"])]
        with self.log_path.open("wb") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=log)
        deadline = started + timeout_s
        while True:
            try:
                status, _ = http_request(self.port, "GET", "/healthz",
                                         timeout_s=5.0)
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited with {self.process.returncode} "
                    f"during boot (log: {self.log_path})")
            if time.perf_counter() > deadline:
                raise BenchError(f"server not ready after {timeout_s} s")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """High-water resident set size of the server (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=15.0)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def boot_median(prefix: str, boots: int) -> "tuple[ServerProcess, list[float]]":
    """Boot ``boots`` servers in turn, keep the last one running.

    Returns the running server and every boot time; the median of
    those is the run's ``setup_s``.
    """
    times = []
    for index in range(boots - 1):
        with ServerProcess(f"{prefix}-boot{index}.log") as server:
            times.append(server.boot())
    server = ServerProcess(f"{prefix}.log")
    try:
        times.append(server.boot())
    except BaseException:
        server.stop()
        raise
    return server, times


# -- result comparison --------------------------------------------------


def close_enough(expected, actual, rel: float = 1e-9,
                 path: str = "") -> "list[str]":
    """Mismatches between two JSON values, floats compared to ``rel``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(set(expected) ^ set(actual))}"]
        problems = []
        for key in expected:
            problems += close_enough(expected[key], actual[key], rel,
                                     f"{path}.{key}")
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        problems = []
        for index, (left, right) in enumerate(zip(expected, actual)):
            problems += close_enough(left, right, rel, f"{path}[{index}]")
        return problems
    if isinstance(expected, float) or isinstance(actual, float):
        if not (isinstance(expected, (int, float))
                and isinstance(actual, (int, float))):
            return [f"{path}: {expected!r} != {actual!r}"]
        if math.isclose(expected, actual, rel_tol=rel, abs_tol=1e-300) \
                or (math.isnan(expected) and math.isnan(actual)):
            return []
        return [f"{path}: {expected!r} != {actual!r}"]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]
