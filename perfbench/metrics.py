"""Metric definitions and small statistics helpers for the benchmark.

``END_TO_END`` lists what a user of the system sees: the untraced run
(``--trace 0``) prints exactly these.  ``PER_LAYER`` lists what the
traced run (``--trace 1``) prints: per-layer self time, counts and
ratios, each normalised per traced operation so that a faster commit,
which fits more operations into the same run length, still compares
like for like.  Every per-layer entry names the layer (by its module in
``src/repro``) and the end-to-end figure and workload it should move.

The final JSON line must carry the same metric names on every workload,
each non-zero.  So it holds only what every workload has: searches (all
four issue them), a p95 over every op, and throughput, which carries the
mean cost of the heavier kinds.  Searches are summarised by their mean:
their median sits on the boundary between cheap and dear queries (cache
hits and recomputes on ``write_mix``) and jumps by 10-30% between seeds,
while the mean moves smoothly with the mix.  Per-kind p50/p95
(``search_p50_ms``, ``overview_p50_ms``, ``explore_p95_ms``,
``write_p50_ms``, ...), ``error_rate`` and ``store_mb`` go into every run's
ledger record and the human-readable table, with their sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Allowed regression as a share of the parent's median (end-to-end only).
    bound: float = 0.0
    #: Source layer, named by module (per-layer only).
    layer: str = ""
    #: "metric on workload" pairs this metric should move (per-layer only).
    moves: tuple[str, ...] = ()
    description: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           description="median of the run's set-ups: catalog build, app or "
           "federation open, per-user warm-up, first-touch index builds"),
    Metric("throughput_ops_s", "1/s", "higher", 0.20,
           description="closed-loop rate, one op at a time: one op per mean op latency"),
    Metric("search_mean_ms", "ms", "lower", 0.20,
           description="mean search latency; every workload issues searches"),
    Metric("op_p95_ms", "ms", "lower", 0.20,
           description="95th-percentile latency over every timed operation"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           description="peak resident set size of the benchmark process"),
)

_Q = "search_p50_ms on explore_search_cold"
_FQ = "search_p50_ms on federated_search"
_OV = "overview_p50_ms on overview_warm"
_EX = "explore_p50_ms on explore_search_cold"
_WR = "write_p50_ms on write_mix"

PER_LAYER = (
    # core.query
    Metric("query.parse.self_ms", "ms/op", "lower", layer="core.query", moves=(_Q, _FQ)),
    Metric("query.plan.self_ms", "ms/op", "lower", layer="core.query", moves=(_Q, _FQ)),
    Metric("query.eval.self_ms", "ms/op", "lower", layer="core.query", moves=(_Q, _FQ)),
    Metric("query.planner_skip_ratio", "ratio", "higher", layer="core.query", moves=(_Q, _FQ)),
    # providers.execution
    Metric("engine.calls", "1/op", "lower", layer="providers.execution",
           moves=("search_p50_ms on overview_warm", _EX, "overview_p95_ms on write_mix")),
    Metric("engine.self_ms", "ms/op", "lower", layer="providers.execution",
           moves=("search_p50_ms on overview_warm", _EX, "overview_p95_ms on write_mix")),
    Metric("engine.wait_ms", "ms/op", "lower", layer="providers.execution", moves=(_EX,)),
    Metric("engine.cache_hit_ratio", "ratio", "higher", layer="providers.execution",
           moves=("search_p50_ms on overview_warm", _EX)),
    Metric("engine.single_flights", "1/op", "higher", layer="providers.execution",
           moves=("overview_p95_ms on write_mix",)),
    Metric("engine.invalidations", "1/op", "lower", layer="providers.execution",
           moves=("overview_p95_ms on write_mix",)),
    Metric("engine.delta_patch_ratio", "ratio", "higher", layer="providers.execution",
           moves=("overview_p95_ms on write_mix",)),
    # providers (invoke, timed by an engine middleware)
    Metric("provider.invoke.calls", "1/op", "lower", layer="providers",
           moves=(_EX, "explore_p95_ms on explore_search_cold")),
    Metric("provider.invoke.ms", "ms/op", "lower", layer="providers",
           moves=(_EX, "explore_p95_ms on explore_search_cold")),
    Metric("provider.errors", "1/op", "lower", layer="providers",
           moves=(_EX, "explore_p95_ms on explore_search_cold")),
    # core.ranking + providers.fields
    Metric("ranking.self_ms", "ms/op", "lower", layer="core.ranking",
           moves=(_OV, "throughput_ops_s on overview_warm")),
    Metric("ranking.items_scored", "1/op", "lower", layer="core.ranking",
           moves=(_OV, "throughput_ops_s on overview_warm")),
    Metric("fields.usage_lookups", "1/op", "lower", layer="providers.fields",
           moves=(_OV, "throughput_ops_s on overview_warm")),
    # core.views
    Metric("views.build.calls", "1/op", "lower", layer="core.views", moves=(_OV,)),
    Metric("views.build.self_ms", "ms/op", "lower", layer="core.views", moves=(_OV,)),
    Metric("views.cards", "1/op", "lower", layer="core.views", moves=(_OV,)),
    # core.render
    Metric("render.self_ms", "ms/op", "lower", layer="core.render", moves=(_OV,)),
    Metric("render.bytes", "bytes/op", "lower", layer="core.render", moves=(_OV,)),
    # core.interface
    Metric("interface.self_ms", "ms/op", "lower", layer="core.interface",
           moves=("throughput_ops_s on every workload",)),
    # catalog
    Metric("catalog.read.calls", "1/op", "lower", layer="catalog", moves=(_WR, "write_p95_ms on write_mix")),
    Metric("catalog.read.self_ms", "ms/op", "lower", layer="catalog", moves=(_WR, "write_p95_ms on write_mix")),
    Metric("catalog.write.calls", "1/op", "lower", layer="catalog", moves=(_WR, "write_p95_ms on write_mix")),
    Metric("catalog.write.self_ms", "ms/op", "lower", layer="catalog", moves=(_WR, "write_p95_ms on write_mix")),
    Metric("catalog.flush.calls", "1/op", "lower", layer="catalog", moves=(_WR, "write_p95_ms on write_mix")),
    Metric("catalog.flush.ms", "ms/op", "lower", layer="catalog", moves=(_WR, "write_p95_ms on write_mix")),
    Metric("sqlite.query_ms", "ms/op", "lower", layer="catalog", moves=(_WR, "store_mb on write_mix")),
    Metric("catalog.bytes_per_write", "bytes", "lower", layer="catalog", moves=("store_mb on write_mix",)),
    # federation
    Metric("federation.search.self_ms", "ms/op", "lower", layer="federation",
           moves=(_FQ, "search_p95_ms on federated_search")),
    Metric("federation.fanout.ms", "ms/op", "lower", layer="federation",
           moves=(_FQ, "search_p95_ms on federated_search")),
    Metric("federation.member_calls", "1/op", "lower", layer="federation",
           moves=(_FQ, "search_p95_ms on federated_search")),
    Metric("federation.partial_results", "1/op", "lower", layer="federation",
           moves=(_FQ, "search_p95_ms on federated_search")),
    # instrument health
    Metric("trace.coverage", "ratio", "higher", layer="perfbench",
           description="share of traced op wall time inside named layer spans"),
    Metric("trace.overhead", "ratio", "higher", layer="perfbench",
           description="traced over untraced throughput, medians over repeats"),
)


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the repo's own definition in repro.obs)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def closed_loop_throughput(samples: list) -> float:
    """Ops per second of the closed loop, which runs one op at a time:
    one op per mean op latency."""
    total_ms = sum(latency for _, latency in samples)
    return 1000.0 * len(samples) / total_ms if total_ms > 0 else 0.0


def latency_summary(samples: list[float]) -> dict:
    """p50/p95 with the sample count beside them; ``p95_valid`` tells
    whether at least ten samples lie beyond the 95th percentile."""
    return {
        "count": len(samples),
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "p95_valid": len(samples) * 0.05 >= 10,
        "mean": sum(samples) / len(samples) if samples else 0.0,
    }


def median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
