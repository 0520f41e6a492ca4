"""BENCH_write_path — streaming writes: delta patching vs drop-and-refetch.

The streaming ingestion shape: sustained usage-event batches (applied
through :meth:`CatalogStore.record_events`, one coalesced version bump
per batch) interleaved 1:1+ with fetches of usage-dependent endpoints.
Under PR 2's invalidation alone every batch drops every usage-dependent
cache entry, so at write:search ≥ 1:1 the hit rate collapses to ≈ 0;
the delta patchers instead update cached results in place and the cache
keeps working.

Two engines run the identical seeded workload over identically seeded
catalogs:

* **delta** — builtin endpoints installed with their cache delta
  patchers (``install_builtin_endpoints(..., patchers=True)``);
* **drop** — the same endpoints with patchers stripped: every dependent
  write drops the entry (the pre-streaming behaviour).

Measured per mode: writes/sec, cache hit rate, delta patch/fallback and
coalesced-bump counters, and a stale audit — every fetch's membership
and order is compared against a fresh provider invocation on the same
store; any divergence fails the benchmark outright.

Acceptance gates: the delta engine's hit rate is at least **2×** the
drop engine's at a write:search ratio ≥ 1:1, with **zero** stale
results in either mode.

Emits ``benchmarks/results/BENCH_write_path.json`` plus a text table.
Set ``BENCH_SMOKE=1`` for the CI-sized run.
A smoke run writes ``BENCH_write_path.smoke.json`` and ``.txt`` instead.
"""

import random
import time

from benchmarks.conftest import SMOKE, write_bench
from repro.catalog.model import UsageEvent
from repro.providers.base import ProviderRequest, RequestContext
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import ExecutionEngine, ExecutionPolicy
from repro.providers.registry import EndpointRegistry
from repro.synth import SynthConfig, generate_catalog

#: Usage events per step (one coalesced batch) — and with one fetch per
#: request per step the write:search ratio stays >= 1:1.
BATCH_SIZE = 6

_rows: dict[str, dict] = {}


def _steps() -> int:
    return 30 if SMOKE else 150


def _build_store():
    return generate_catalog(
        SynthConfig(seed=7, n_tables=120 if SMOKE else 400,
                    usage_events=500)
    )


def _requests(store):
    """The fetch keyspace: usage-dependent endpoints whose declared
    domains cover their ranking inputs, so order is oracle-checkable."""
    users = [u.id for u in store.users()[:3]]
    team = sorted(t.id for t in store.teams())[0]
    requests = [
        (
            "catalog://recents",
            ProviderRequest(inputs={"user": uid},
                            context=RequestContext(user_id=uid)),
        )
        for uid in users
    ]
    requests += [
        ("catalog://favorites",
         ProviderRequest(inputs={"user": users[0]},
                         context=RequestContext(user_id=users[0]))),
        ("catalog://most_viewed",
         ProviderRequest(context=RequestContext(user_id=users[0]))),
        ("catalog://team_popular",
         ProviderRequest(inputs={"team": team},
                         context=RequestContext(user_id=users[0],
                                                team_id=team))),
    ]
    return requests


def _run_mode(patchers: bool) -> dict:
    store = _build_store()
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, BuiltinProviders(store),
                              patchers=patchers)
    engine = ExecutionEngine(
        registry,
        store=store,
        policy=ExecutionPolicy.defaults().replace(cache_ttl_s=3600.0),
    )
    requests = _requests(store)
    rng = random.Random(11)
    user_ids = [u.id for u in store.users()]
    artifact_ids = store.artifact_ids()
    actions = ("view", "view", "open", "favorite")

    for uri, request in requests:  # warm the cache
        engine.execute(uri, request)
    engine.stats.reset()

    stale = 0
    writes = 0
    write_wall_s = 0.0
    steps = _steps()
    for _ in range(steps):
        batch = [
            UsageEvent(
                artifact_id=rng.choice(artifact_ids),
                user_id=rng.choice(user_ids),
                action=rng.choice(actions),
                timestamp=store.clock.now(),
            )
            for _ in range(BATCH_SIZE)
        ]
        started = time.perf_counter()
        store.record_events(batch)
        write_wall_s += time.perf_counter() - started
        writes += len(batch)
        for uri, request in requests:
            served = engine.execute(uri, request).result
            fresh = registry.resolve(uri)(request)
            if served.artifact_ids() != fresh.artifact_ids():
                stale += 1

    totals = engine.stats.snapshot()["totals"]
    hits, misses = totals["cache_hits"], totals["cache_misses"]
    engine.close()
    return {
        "mode": "delta" if patchers else "drop",
        "steps": steps,
        "writes": writes,
        "searches": steps * len(requests),
        "write_search_ratio": round(writes / (steps * len(requests)), 2),
        "writes_per_s": round(writes / write_wall_s, 1)
        if write_wall_s > 0 else 0.0,
        "hit_rate": round(hits / (hits + misses), 4)
        if hits + misses else 0.0,
        "cache_hits": hits,
        "cache_misses": misses,
        "endpoint_calls": totals["calls"],
        "invalidations": totals["invalidations"],
        "delta_patches": totals["delta_patches"],
        "delta_fallbacks": totals["delta_fallbacks"],
        "coalesced_bumps": totals["coalesced_bumps"],
        "stale_results": stale,
    }


def test_bench_write_path_workload():
    delta = _run_mode(patchers=True)
    drop = _run_mode(patchers=False)
    _rows["delta"] = delta
    _rows["drop"] = drop

    # Correctness is never traded for the hit rate.
    assert delta["stale_results"] == 0, delta
    assert drop["stale_results"] == 0, drop
    # Each step's batch coalesced into a single version bump.
    assert delta["coalesced_bumps"] == delta["steps"] * (BATCH_SIZE - 1)
    # The headline gate: at write:search >= 1:1 the delta engine keeps
    # at least twice the drop engine's hit rate.
    assert delta["write_search_ratio"] >= 1.0, delta
    assert delta["hit_rate"] >= 2 * max(drop["hit_rate"], 0.05), (
        delta, drop,
    )
    # The patch path actually ran — this is not a vacuous comparison.
    assert delta["delta_patches"] > 0, delta


def test_bench_write_path_report():
    assert _rows, "workload benchmark did not run"
    lines = [
        f"{'engine':>7}{'steps':>7}{'writes':>8}{'w/s':>10}"
        f"{'hit rate':>10}{'hits':>7}{'misses':>8}{'calls':>7}"
        f"{'inval':>7}{'patch':>7}{'dfall':>7}{'coal':>7}{'stale':>7}"
    ]
    for label, row in _rows.items():
        lines.append(
            f"{label:>7}{row['steps']:>7}{row['writes']:>8}"
            f"{row['writes_per_s']:>10.1f}{row['hit_rate']:>10.3f}"
            f"{row['cache_hits']:>7}{row['cache_misses']:>8}"
            f"{row['endpoint_calls']:>7}{row['invalidations']:>7}"
            f"{row['delta_patches']:>7}{row['delta_fallbacks']:>7}"
            f"{row['coalesced_bumps']:>7}{row['stale_results']:>7}"
        )
    payload = {
        "workload": {
            "batch_size": BATCH_SIZE,
            "fetches_per_step": _rows["delta"]["searches"]
            // _rows["delta"]["steps"],
            "smoke": SMOKE,
        },
        "engines": _rows,
    }
    write_bench(
        "write_path",
        "Streaming writes: delta-patched caches vs drop-and-refetch "
        "(batched usage events, write:search >= 1:1)",
        "\n".join(lines),
        payload,
    )
