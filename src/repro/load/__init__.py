"""Deterministic concurrent load generation.

See :mod:`repro.load.workload` for the seeded session-script generator
and :mod:`repro.load.harness` for the multi-threaded driver, its inline
isolation checks and :class:`LoadReport`.  One harness drives both
deployments: ``LoadConfig(parts=1)`` one shared workbook, ``parts >= 2``
a partitioned federation served by
:class:`~repro.federation.catalog.Discovery`.
"""

from repro.load.harness import (
    LoadHarness,
    LoadReport,
    latency_middleware,
    run_load,
)
from repro.load.workload import (
    LoadConfig,
    Op,
    SessionScript,
    build_workload,
    query_pool,
)

__all__ = [
    "LoadConfig",
    "LoadHarness",
    "LoadReport",
    "Op",
    "SessionScript",
    "build_workload",
    "latency_middleware",
    "query_pool",
    "run_load",
]
