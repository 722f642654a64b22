"""``python -m repro serve`` stops cleanly on SIGTERM, even mid-fetch.

A real server subprocess is signalled while it is writing a
multi-megabyte ``?traces=1`` result to a client that has stopped
reading.  The process must exit 0 without printing a traceback: the
signal is handled on the event loop, and the cancelled in-flight
connection is dropped quietly.  In process, ``ReproServer.stop`` must
close a connection that never sent its request instead of leaving it
open (on Python >= 3.12.1 ``Server.wait_closed`` would wait for it
forever).
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import ServeClient
from repro.serve.server import ReproServer

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A cohort large enough that its traced result (~7 MB of JSON) cannot
#: sit in the socket buffers: the server is still writing when the
#: signal lands.
BIG_ESTIMATION = {
    "schema_version": 1, "workload": "estimation", "name": "big-fetch",
    "seed": 5, "description": "",
    "spec": {"cohort": {"sensor": "glucose/this-work",
                        "analyte": "glucose", "n_patients": 200},
             "duration_h": 24.0, "sample_period_s": 300.0}}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _serve(port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in ("REPRO_TELEMETRY", "REPRO_METRICS",
                 "REPRO_TELEMETRY_TRACE"):
        env.pop(name, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port)],
        cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)


def _wait_until_healthy(client: ServeClient, process: subprocess.Popen,
                        timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            client.health()
            return
        except OSError:
            assert process.poll() is None, "server died during boot"
            assert time.monotonic() < deadline, "server never came up"
            time.sleep(0.05)


def test_sigterm_mid_fetch_exits_cleanly():
    port = _free_port()
    process = _serve(port)
    try:
        client = ServeClient("127.0.0.1", port, timeout_s=60.0)
        _wait_until_healthy(client, process)
        job = client.submit(BIG_ESTIMATION)
        client.wait_for_job(job["job_id"], timeout_s=120.0)
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(60.0)
            sock.connect(("127.0.0.1", port))
            sock.sendall(
                f"GET /scenarios/{job['job_id']}/result?traces=1 "
                f"HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
            head = sock.recv(1024)
            assert head.startswith(b"HTTP/1.1 200"), head[:80]
            # Stop reading: the server is now blocked mid-write.
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stderr.decode()
    assert b"Traceback" not in stderr, stderr.decode()


def test_stop_closes_idle_connection():
    async def scenario() -> bytes:
        server = ReproServer(port=0)
        await server.start()
        try:
            idle_reader, idle_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            # Request line but no blank line: the handler waits on it.
            idle_writer.write(b"GET /healthz HTTP/1.1\r\n")
            await idle_writer.drain()
            # A full round trip on a later connection guarantees the
            # idle connection's handler is already running.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert (await reader.read()).startswith(b"HTTP/1.1 200")
            writer.close()
        finally:
            await asyncio.wait_for(server.stop(), timeout=10.0)
        try:
            return await asyncio.wait_for(idle_reader.read(),
                                          timeout=10.0)
        except ConnectionResetError:
            return b""
        finally:
            idle_writer.close()

    assert asyncio.run(scenario()) == b""
