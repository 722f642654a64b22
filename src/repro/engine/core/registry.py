"""Workload registry: names -> kernel sets, plus the unified entry points.

Engines register their kernel set at import time; the registry is how
everything above the engine layer (scenarios, benchmarks, the contract
suite) reaches an execution path without hard-coding four functions:

* :func:`run_workload` — the vectorized path (compile + chunked
  executor) for any registered workload.
* :func:`run_scalar` — the per-element reference path, replacing the
  four historical ``run_*_scalar`` functions (kept as deprecated
  aliases in their home modules).

Lookups lazily import :mod:`repro.engine` so the four built-in kernel
sets are registered on first use even when only
``repro.engine.core`` was imported.
"""

from __future__ import annotations

from repro.engine.core.executor import execute
from repro.engine.core.kernelset import KernelSet

_KERNEL_SETS: "dict[str, KernelSet]" = {}


def register_kernels(kernels: KernelSet,
                     replace: bool = False) -> KernelSet:
    """Register a kernel set under its ``name``; returns it.

    Args:
        kernels: the kernel set to register.
        replace: allow overwriting an existing registration (tests).

    Raises:
        ValueError: if the name is taken and ``replace`` is false.
    """
    if not replace and kernels.name in _KERNEL_SETS:
        raise ValueError(
            f"kernel set {kernels.name!r} is already registered")
    _KERNEL_SETS[kernels.name] = kernels
    return kernels


def _ensure_builtin_kernels() -> None:
    # The built-in engines register on import; anything that reached
    # this registry through repro.engine already triggered it, but a
    # bare `import repro.engine.core` has not.
    import repro.engine  # noqa: F401


def registered_workloads() -> "tuple[str, ...]":
    """Names of every registered workload, in registration order."""
    _ensure_builtin_kernels()
    return tuple(_KERNEL_SETS)


def kernels_for(workload: str) -> KernelSet:
    """Look up the kernel set registered under ``workload``.

    Raises:
        KeyError: for an unknown workload name (the message lists
            what is registered).
    """
    _ensure_builtin_kernels()
    try:
        return _KERNEL_SETS[workload]
    except KeyError:
        known = ", ".join(sorted(_KERNEL_SETS)) or "none"
        raise KeyError(
            f"unknown workload {workload!r}; registered: {known}") from None


def run_workload(workload: str, plan):
    """Run ``plan`` through the chunked executor of the named workload.

    This is the single vectorized execution path; the public
    ``run_batch`` / ``run_monitor`` / ``run_therapy`` /
    ``run_estimation`` functions are thin wrappers over it.
    """
    return execute(kernels_for(workload), plan)


def run_scalar(workload: str, plan):
    """Run ``plan`` through the named workload's scalar reference."""
    return kernels_for(workload).run_scalar(plan)
