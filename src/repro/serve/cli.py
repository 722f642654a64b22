"""The ``python -m repro serve`` command: boot the async front door.

Thin argparse glue between the scenario CLI and
:class:`repro.serve.server.ReproServer`; mirrors the ``run`` command's
telemetry flags so a serving process records ``serve.*`` spans next to
the engine's own (``--telemetry``, ``--trace-out``, ``--perfetto-out``)
and prints its metrics registry snapshot at shutdown — the CI smoke
job uploads the JSONL trace as an artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import threading
from pathlib import Path


def _install_shutdown_handlers() -> None:
    """Map SIGINT/SIGTERM to ``KeyboardInterrupt`` until the loop runs.

    Covers the boot phase only; once serving, :func:`_serve` handles
    both signals on the event loop.  A process launched in the
    background from a non-interactive shell (CI smoke jobs,
    supervisors) inherits SIGINT as ignored; restoring the default
    disposition here means ``kill -INT`` works from the first moment.
    """

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, _terminate)


async def _serve(server) -> None:
    """Serve until SIGINT or SIGTERM, then stop the server cleanly.

    The signals are handled on the event loop (``add_signal_handler``):
    they set a stop event between callbacks instead of raising in
    whatever frame happens to run, so a signal during a large result
    write cannot tear through a connection handler.
    :meth:`~repro.serve.server.ReproServer.stop` then cancels the
    in-flight connections, which the connection handler absorbs.
    """
    stop = asyncio.Event()
    if threading.current_thread() is threading.main_thread():
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
    await server.start()
    try:
        await stop.wait()
    finally:
        await server.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving process until interrupted."""
    from repro.serve.server import ReproServer
    from repro.telemetry import telemetry_env_enabled

    telemetry_on = (args.telemetry or args.trace_out is not None
                    or args.perfetto_out is not None
                    or telemetry_env_enabled())
    recorder = previous = None
    if telemetry_on:
        from repro.telemetry import (
            InMemoryRecorder,
            JsonlSink,
            set_recorder,
        )

        sinks = ([JsonlSink(args.trace_out)]
                 if args.trace_out is not None else [])
        recorder = InMemoryRecorder(sinks=sinks)
        previous = set_recorder(recorder)
    server = ReproServer(host=args.host, port=args.port,
                         queue_size=args.queue_size,
                         workers=args.workers,
                         per_workload=args.per_workload)
    _install_shutdown_handlers()
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        pass
    finally:
        if recorder is not None:
            from repro.telemetry import set_recorder

            set_recorder(previous)
            recorder.close()
            print(recorder.render_summary())
            if server.registry is not None:
                from repro.telemetry import render_snapshot

                print(render_snapshot(server.registry.snapshot()))
            if args.trace_out is not None:
                print(f"trace -> {args.trace_out}")
            if args.perfetto_out is not None:
                from repro.telemetry import write_perfetto

                path = write_perfetto(args.perfetto_out,
                                      recorder.spans)
                print(f"perfetto trace -> {path}")
    return 0


def add_serve_command(sub: "argparse._SubParsersAction") -> None:
    """Attach the ``serve`` subcommand to the ``python -m repro`` CLI."""
    serve_p = sub.add_parser(
        "serve",
        help="serve scenarios and live streams over HTTP")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8750,
                         help="bind port; 0 picks a free one "
                              "(default: 8750)")
    serve_p.add_argument("--queue-size", type=int, default=16,
                         help="job-queue bound; submissions beyond it "
                              "get 503 (default: 16)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="concurrent job workers (default: 2)")
    serve_p.add_argument("--per-workload", type=int, default=2,
                         help="max concurrent jobs per workload "
                              "(default: 2)")
    serve_p.add_argument("--telemetry", action="store_true",
                         help="record serve.* and engine spans; print "
                              "the span summary and metrics snapshot "
                              "on shutdown")
    serve_p.add_argument("--trace-out", type=Path, default=None,
                         help="stream spans to this JSONL "
                              "file (implies --telemetry)")
    serve_p.add_argument("--perfetto-out", type=Path, default=None,
                         help="write a Perfetto flame graph on "
                              "shutdown (implies --telemetry)")
    serve_p.set_defaults(func=_cmd_serve)
