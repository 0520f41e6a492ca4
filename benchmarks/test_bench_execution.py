"""BENCH_execution — the provider execution layer's perf trajectory.

Measures, at ~1k and ~50k artifacts:

* overview generation wall-clock on the pre-engine **serial** path
  (a direct ``registry.fetch`` loop) versus the engine's parallel
  fan-out, cold and warm cache — the warm path is what a production
  deployment serves overview regenerations from;
* cache hit rate after a repeated-interaction workload;
* per-fetch latency percentiles from :class:`ExecutionStats`;
* text-search latency with the catalog's token-set cache cold vs warm
  (the ``_text_base_scores`` optimisation).

Emits ``benchmarks/results/BENCH_execution.json`` so successive PRs can
track the numbers, plus the usual text table.

Set ``BENCH_SMOKE=1`` to run the small size only (CI smoke).
A smoke run writes ``BENCH_execution.smoke.json`` and ``.txt`` instead.
"""

import time

from benchmarks.conftest import SMOKE, write_bench
from repro.errors import MissingInputError, ProviderError
from repro.providers.base import ProviderRequest, RequestContext
from repro.synth import SynthConfig, generate_catalog
from repro.workbook.app import WorkbookApp

#: label -> n_tables (the generator adds dashboards/workbooks/documents,
#: so artifact counts land near the labels).
SIZES = {"1k": 550, "50k": 27500}

_rows: dict[str, dict] = {}


def _sizes() -> dict[str, int]:
    if SMOKE:
        return {"1k": SIZES["1k"]}
    return dict(SIZES)


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def serial_overview(interface, user_id: str, limit: int = 20) -> list:
    """The pre-engine overview path: one registry fetch per provider,
    serial, fault containment inlined — kept here as the baseline."""
    providers = interface.customization.effective_providers(
        interface.spec, "overview", user_id=user_id, team_id=""
    )
    context = RequestContext(user_id=user_id, limit=limit)
    tabs = []
    for provider in providers:
        inputs = interface._ambient_inputs(provider, user_id, "")
        if not provider.is_ready(inputs):
            continue
        try:
            result = interface.registry.fetch(
                provider.endpoint,
                ProviderRequest(inputs=inputs, context=context),
            )
            view = interface.factory.build(provider, result, inputs=inputs)
        except MissingInputError:
            continue
        except ProviderError:
            continue
        tabs.append((provider.name, view))
    return tabs


def _measure(label: str, n_tables: int) -> dict:
    store = generate_catalog(
        SynthConfig(seed=7, n_tables=n_tables,
                    usage_events=max(1000, n_tables // 2))
    )
    app = WorkbookApp(store)
    user = store.users()[0]
    rounds = 3 if n_tables < 5000 else 2

    serial_s = _best_of(
        lambda: serial_overview(app.interface, user.id), rounds=rounds
    )

    def engine_cold():
        app.engine.invalidate()
        app.interface.overview_tabs(user_id=user.id)

    engine_cold_s = _best_of(engine_cold, rounds=rounds)

    app.interface.overview_tabs(user_id=user.id)  # warm the cache
    engine_warm_s = _best_of(
        lambda: app.interface.overview_tabs(user_id=user.id), rounds=rounds
    )

    # A repeated-interaction workload: the same home screen and query,
    # over and over, as a returning user would.
    app.stats.reset()
    app.engine.invalidate()
    for _ in range(5):
        app.interface.overview_tabs(user_id=user.id)
        app.interface.search("type: table", user_id=user.id, limit=10)
    hit_rate = app.stats.cache_hit_rate

    snapshot = app.stats.snapshot()
    newest = snapshot["endpoints"].get("catalog://newest", {})
    latency = newest.get("latency_ms", {"p50": 0.0, "p95": 0.0})

    # Token-set cache: text scoring cold (cache cleared each round) vs
    # warm.  Only catalog-side memoisation differs between the runs.
    target = store.artifact(store.by_type("table")[0])
    text_query = target.name.lower().split("_")[0]

    def text_search_cold():
        store.clear_token_cache()
        app.interface.search(text_query, limit=10)

    text_cold_s = _best_of(text_search_cold, rounds=rounds)
    text_warm_s = _best_of(
        lambda: app.interface.search(text_query, limit=10), rounds=rounds
    )

    return {
        "artifacts": store.artifact_count,
        "overview_serial_ms": serial_s * 1000,
        "overview_engine_cold_ms": engine_cold_s * 1000,
        "overview_engine_warm_ms": engine_warm_s * 1000,
        "overview_speedup_vs_serial": serial_s / engine_warm_s,
        "cache_hit_rate": hit_rate,
        "fetch_p50_ms": latency["p50"],
        "fetch_p95_ms": latency["p95"],
        "text_search_cold_ms": text_cold_s * 1000,
        "text_search_warm_ms": text_warm_s * 1000,
    }


def test_bench_execution_sizes():
    for label, n_tables in _sizes().items():
        row = _measure(label, n_tables)
        _rows[label] = row
        # The engine's warm path (what repeated interactions hit) must
        # beat the serial pre-engine path at every size.
        assert row["overview_engine_warm_ms"] < row["overview_serial_ms"], (
            f"{label}: warm engine overview slower than serial baseline"
        )
        # Repeated workload on an unchanged catalog is cache-dominated.
        assert row["cache_hit_rate"] > 0.5
        # Token-set memoisation must not regress text search.
        assert row["text_search_warm_ms"] <= row["text_search_cold_ms"] * 1.1


def test_bench_execution_report():
    assert _rows, "size benchmark did not run"
    lines = [
        f"{'size':>6}{'artifacts':>10}{'serial ms':>11}{'cold ms':>9}"
        f"{'warm ms':>9}{'speedup':>9}{'hit rate':>10}"
        f"{'txt cold':>10}{'txt warm':>10}"
    ]
    for label, row in _rows.items():
        lines.append(
            f"{label:>6}{row['artifacts']:>10}"
            f"{row['overview_serial_ms']:>11.1f}"
            f"{row['overview_engine_cold_ms']:>9.1f}"
            f"{row['overview_engine_warm_ms']:>9.1f}"
            f"{row['overview_speedup_vs_serial']:>9.1f}"
            f"{row['cache_hit_rate']:>10.2f}"
            f"{row['text_search_cold_ms']:>10.1f}"
            f"{row['text_search_warm_ms']:>10.1f}"
        )
    payload = {"sizes": _rows}
    write_bench(
        "execution",
        "Provider execution layer: serial vs engine overview, cache rates",
        "\n".join(lines),
        payload,
    )
