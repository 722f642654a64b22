"""Shared speedup-bench harness: time once, gate everywhere.

Every workload's benchmark pairs the chunked executor against an honest
scalar baseline and gates the ratio on a floor read from the
environment (relaxed in CI, strict locally).  This module owns the
mechanics all four used to copy-paste:

* :func:`best_of` — min-of-N wall-clock timing.
* :func:`floor_from_env` — resolve a speedup floor.
* :func:`measure_speedup` — warm, time both sides, return the JSON
  payload (``scalar_wall_s`` / ``batch_wall_s`` / ``speedup`` /
  ``speedup_floor`` plus workload-specific extras).

``benchmarks/bench_core.py`` drives this harness over every registered
workload in one loop and writes the payloads, keyed by workload, to
the single ``BENCH_core.json`` record.
"""

from __future__ import annotations

import os
import time


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` calls."""
    return min(_timed(fn) for _ in range(max(1, repeats)))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def floor_from_env(env_var: str, default: float = 5.0) -> float:
    """Speedup floor from ``env_var``, or ``default`` when unset.

    Local runs keep the strict acceptance floor; CI exports relaxed
    values because shared runners add timing noise.
    """
    return float(os.environ.get(env_var, str(default)))


def measure_speedup(fast, slow, floor: float, extras=None,
                    repeats: int = 3, scalar_repeats: int = 1,
                    warm: bool = True) -> dict:
    """Time a vectorized/scalar pair and assemble the bench payload.

    Args:
        fast: zero-argument callable running the chunked-executor path.
        slow: zero-argument callable running the scalar baseline.
        floor: minimum acceptable ``fast``-over-``slow`` speedup
            (stored in the payload; the caller asserts it).
        extras: workload-specific payload fields (sample counts, ...).
        repeats: best-of count for the fast path.
        scalar_repeats: best-of count for the slow path (1 keeps the
            smoke run short; min-of-1 only over-estimates the scalar
            time, which relaxes, never tightens, the gate).
        warm: run ``fast()`` once untimed first (JIT-free here, but it
            fills lazy caches so the timed runs compare steady state).

    Returns:
        The JSON-serializable payload (one workload's entry in
        ``BENCH_core.json``).
    """
    if warm:
        fast()
    batch_wall = best_of(fast, repeats=repeats)
    scalar_wall = best_of(slow, repeats=scalar_repeats)
    payload = dict(extras or {})
    payload.update(
        scalar_wall_s=scalar_wall,
        batch_wall_s=batch_wall,
        speedup=scalar_wall / batch_wall,
        speedup_floor=floor,
    )
    return payload
