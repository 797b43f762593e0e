"""Deterministic parallel execution for fault campaigns.

Fault-injection campaigns are embarrassingly parallel: every mutant is
simulated independently against the same test set, and only the
per-mutant verdicts matter.  This package provides the worker-pool
engine the campaign layers (:mod:`repro.faults.campaign` and
:mod:`repro.validation.harness`) route through:

* :func:`parallel_map` -- chunked fan-out over a
  ``ProcessPoolExecutor`` with a deterministic in-process fallback,
  per-task wall-clock timeouts and bounded retries.  Results always
  come back in submission order, so campaign results are byte-identical
  regardless of worker count.
* :func:`machine_fingerprint` and friends -- structural digests of
  campaign inputs, the building blocks of campaign identities.
"""

from .backoff import BackoffPolicy
from .executor import (
    KERNELS,
    MUTANT_BATCH,
    TaskOutcome,
    TaskTimeout,
    batch_unit,
    check_kernel,
    default_jobs,
    install_task_wrapper,
    parallel_map,
    parallel_map_batched,
    run_task_inline,
)
from .fingerprint import (
    battery_fingerprint,
    inputs_fingerprint,
    machine_fingerprint,
)

__all__ = [
    "KERNELS",
    "MUTANT_BATCH",
    "BackoffPolicy",
    "TaskOutcome",
    "TaskTimeout",
    "batch_unit",
    "battery_fingerprint",
    "check_kernel",
    "default_jobs",
    "inputs_fingerprint",
    "install_task_wrapper",
    "machine_fingerprint",
    "parallel_map",
    "parallel_map_batched",
    "run_task_inline",
]
