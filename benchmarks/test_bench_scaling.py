"""E8 — Scaling with catalog size (§3.1: catalogs of 'up to millions').

Sweeps catalog size and times the interactive operations — interface
generation, global search, view filtering, exploration — recording the
per-size latencies.  The shape that must hold: index-backed query
evaluation grows sublinearly with catalog size (per-result work, not
per-catalog scans).
"""

import time

import pytest

from benchmarks.conftest import write_result
from repro.providers.builtin import BuiltinProviders
from repro.synth import SynthConfig, generate_catalog
from repro.workbook.app import WorkbookApp

SIZES = (100, 400, 1600, 3200)

_apps: dict[int, WorkbookApp] = {}
_timings: dict[tuple[int, str], float] = {}


def app_for(n_tables: int) -> WorkbookApp:
    if n_tables not in _apps:
        store = generate_catalog(
            SynthConfig(seed=7, n_tables=n_tables,
                        usage_events=n_tables * 8)
        )
        _apps[n_tables] = WorkbookApp(store)
    return _apps[n_tables]


@pytest.mark.parametrize("n_tables", SIZES)
def test_e8_search_scaling(benchmark, n_tables):
    app = app_for(n_tables)
    user = app.store.users()[0]

    def run_search():
        result, _ = app.interface.search(
            "type: table & tagged: sales", user_id=user.id
        )
        return result

    result = benchmark(run_search)
    assert result.total > 0
    _timings[(n_tables, "search")] = benchmark.stats.stats.mean


@pytest.mark.parametrize("n_tables", SIZES)
def test_e8_selective_search_scaling(benchmark, n_tables):
    """A selective query (one artifact's name) — result size is fixed, so
    index-backed evaluation should be near size-independent."""
    app = app_for(n_tables)
    target = app.store.artifact(app.store.by_type("table")[0])
    query = " ".join(target.name.lower().split("_")[:2])

    def run_search():
        result, _ = app.interface.search(query, limit=10)
        return result

    result = benchmark(run_search)
    assert result.total >= 1
    _timings[(n_tables, "selective")] = benchmark.stats.stats.mean


@pytest.mark.parametrize("n_tables", SIZES)
def test_e8_overview_scaling(benchmark, n_tables):
    app = app_for(n_tables)
    user = app.store.users()[0]
    # warm the shared lazy indexes so the benchmark isolates generation
    app.interface.overview_tabs(user_id=user.id)

    tabs = benchmark(app.interface.overview_tabs, user_id=user.id)
    assert tabs
    _timings[(n_tables, "overview")] = benchmark.stats.stats.mean


@pytest.mark.parametrize("n_tables", SIZES)
def test_e8_exploration_scaling(benchmark, n_tables):
    app = app_for(n_tables)
    table_id = app.store.by_type("table")[0]
    user = app.store.users()[0]
    app.exploration.explore(table_id, user_id=user.id)  # warm indexes

    surfaced = benchmark(
        app.exploration.explore, table_id, user_id=user.id
    )
    assert surfaced
    _timings[(n_tables, "exploration")] = benchmark.stats.stats.mean


def test_e8_write_scaling_table(benchmark):
    def build_table():
        lines = [
            f"{'n_tables':>9}{'artifacts':>10}{'search ms':>11}"
            f"{'selective ms':>14}{'overview ms':>13}{'explore ms':>12}"
        ]
        for n_tables in SIZES:
            app = _apps.get(n_tables)
            if app is None:
                continue
            search_ms = _timings.get((n_tables, "search"), 0) * 1000
            selective_ms = _timings.get((n_tables, "selective"), 0) * 1000
            overview_ms = _timings.get((n_tables, "overview"), 0) * 1000
            explore_ms = _timings.get((n_tables, "exploration"), 0) * 1000
            lines.append(
                f"{n_tables:>9}{app.store.artifact_count:>10}"
                f"{search_ms:>11.2f}{selective_ms:>14.2f}"
                f"{overview_ms:>13.2f}{explore_ms:>12.2f}"
            )
        return "\n".join(lines)

    table = benchmark(build_table)
    write_result("E8_scaling", "Latency vs catalog size", table)

    size_ratio = SIZES[-1] / SIZES[0]
    # Broad query: result size grows with the catalog, so latency may grow
    # linearly — but never super-linearly (no per-query catalog scans).
    small = _timings.get((SIZES[0], "search"))
    large = _timings.get((SIZES[-1], "search"))
    if small and large:
        assert large / small < 2.0 * size_ratio
    # Selective query: smaller result sets mean slower latency growth than
    # both the catalog itself and the broad query (work is per-result,
    # not per-catalog).
    small_sel = _timings.get((SIZES[0], "selective"))
    large_sel = _timings.get((SIZES[-1], "selective"))
    if small_sel and large_sel:
        selective_growth = large_sel / small_sel
        assert selective_growth < size_ratio
        if small and large:
            assert selective_growth <= (large / small) * 1.25


def test_e8_index_build_time(benchmark):
    """One-off cost: building a 400-table catalog plus all lazy indexes."""

    def build_everything():
        store = generate_catalog(SynthConfig(seed=11, n_tables=400,
                                             usage_events=2000))
        providers = BuiltinProviders(store)
        providers.joinability.build()
        providers.similarity.build()
        providers.embedding.build()
        return store

    store = benchmark.pedantic(build_everything, rounds=3, iterations=1)
    assert store.artifact_count > 400
