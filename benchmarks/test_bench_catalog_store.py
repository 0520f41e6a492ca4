"""BENCH_catalog_store — cold start and memory: in-memory vs sqlite backend.

Measures, at ~1k, ~50k and ~200k artifacts, the two restart paths:

* **full rebuild** — the pre-backend-split restart: ``load_catalog`` on a
  JSON snapshot re-adds every artifact/user/event into a fresh in-memory
  store (O(catalog) work and memory), then answers one probe query;
* **lazy cold start** — ``CatalogStore.open`` on the sqlite file reads
  only the version counters and state rows, then answers the same probe
  straight from the persisted indexes (O(touched) work and memory).

Peak memory is tracked with ``tracemalloc`` — a deterministic proxy for
peak RSS that counts Python-heap allocations (sqlite's own page cache is
outside it, but that cache is bounded and identical across runs, while
the rebuild path's artifact dicts dominate the Python heap).

Hard gates: the sqlite lazy cold start must be at least **10× faster**
than the full rebuild at 200k artifacts, the first query after a restart
must land within **2× of a warm query** (plus a small absolute slack for
page faults), cold-start peak memory must stay well under the rebuild
peak, and the probe must *not* hydrate the entity domain — laziness is
asserted, not assumed.  Emits ``benchmarks/results/
BENCH_catalog_store.json`` plus the usual text table.

Set ``BENCH_SMOKE=1`` to run the small size only (CI
smoke); the 10× gate only applies at the 200k size.
A smoke run writes ``BENCH_catalog_store.smoke.json`` and ``.txt`` instead.
"""

import contextlib
import tempfile
import time
import tracemalloc
from pathlib import Path

from benchmarks.conftest import SMOKE, write_bench
from repro.catalog.persistence import load_catalog, save_catalog
from repro.catalog.store import CatalogStore
from repro.synth import SynthConfig, generate_catalog, synth_ingestors
from repro.util.textutil import tokenize

#: label -> n_tables (the generator adds dashboards/workbooks/documents,
#: so artifact counts land near the labels).
SIZES = {"1k": 550, "50k": 27500, "200k": 110000}

_rows: dict[str, dict] = {}


def _sizes() -> dict[str, int]:
    if SMOKE:
        return {"1k": SIZES["1k"]}
    return dict(SIZES)


def _config(n_tables: int) -> SynthConfig:
    # Fewer sample values per column than the default keeps the JSON
    # snapshot (and generation time) proportionate at 200k artifacts
    # without changing what the bench measures.
    return SynthConfig(
        seed=7,
        n_tables=n_tables,
        usage_events=max(1000, n_tables // 4),
        samples_per_column=8,
    )


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _probe_tokens(store: CatalogStore) -> list[str]:
    """Two tokens from a mid-catalog table name — always ≥1 hit."""
    ids = store.artifact_ids()
    name = store.artifact(ids[len(ids) // 2]).name
    return tokenize(name)[:2]


def _probe(store: CatalogStore, tokens: list[str]):
    hits = store.search_tokens(tokens)
    universe = store.index_size("type", "table")
    return hits, universe


def _timed_with_peak(fn) -> tuple[float, float, object]:
    """(elapsed_s, python_heap_peak_mb, fn()) under tracemalloc."""
    tracemalloc.start()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak / 1e6, result


def _measure(label: str, n_tables: int) -> dict:
    config = _config(n_tables)
    with tempfile.TemporaryDirectory(prefix="bench_catalog_") as tmp:
        json_path = Path(tmp) / "catalog.json"
        db_path = Path(tmp) / "catalog.db"

        started = time.perf_counter()
        seed_store = generate_catalog(config)
        build_s = time.perf_counter() - started
        artifacts = seed_store.artifact_count
        tokens = _probe_tokens(seed_store)
        expected = _probe(seed_store, tokens)

        save_catalog(seed_store, json_path)
        json_mb = json_path.stat().st_size / 1e6
        del seed_store

        # Persist the same catalog into the sqlite backend.  Ingestion
        # happens once per lifetime of the store file (fingerprinted),
        # so it is *not* part of the restart path being measured.
        started = time.perf_counter()
        with CatalogStore.open(db_path) as target:
            synth_ingestors(config).ingest_into(target)
        ingest_s = time.perf_counter() - started
        db_mb = db_path.stat().st_size / 1e6

        # Restart path A: full in-memory rebuild from the JSON snapshot.
        def rebuild():
            store = load_catalog(json_path)
            return store, _probe(store, tokens)

        rebuild_s, rebuild_peak_mb, (rebuilt, rebuilt_probe) = (
            _timed_with_peak(rebuild)
        )
        assert rebuilt_probe == expected
        del rebuilt

        # Restart path B: lazy sqlite cold start, same probe.
        def cold_start():
            store = CatalogStore.open(db_path)
            return store, _probe(store, tokens)

        cold_s, cold_peak_mb, (cold_store, cold_probe) = (
            _timed_with_peak(cold_start)
        )
        assert cold_probe == expected
        hydrated = cold_store.storage_info()["hydrated"]
        entities_hydrated = bool(hydrated["entities"])
        cold_store.close()

        # First-query-vs-warm on one more fresh connection: the cold
        # probe pays the index SELECTs, warm repeats hit sqlite's page
        # cache and the store's memoised id tuple.
        with contextlib.closing(CatalogStore.open(db_path)) as store:
            started = time.perf_counter()
            _probe(store, tokens)
            first_query_ms = (time.perf_counter() - started) * 1000
            warm_query_ms = (
                _best_of(lambda: _probe(store, tokens), rounds=5) * 1000
            )

    return {
        "artifacts": artifacts,
        "build_s": build_s,
        "json_mb": json_mb,
        "db_mb": db_mb,
        "ingest_s": ingest_s,
        "rebuild_s": rebuild_s,
        "rebuild_peak_mb": rebuild_peak_mb,
        "cold_s": cold_s,
        "cold_peak_mb": cold_peak_mb,
        "cold_speedup": rebuild_s / cold_s if cold_s else 0.0,
        "first_query_ms": first_query_ms,
        "warm_query_ms": warm_query_ms,
        "probe_hits": len(expected[0]),
        "entities_hydrated_by_probe": entities_hydrated,
    }


def test_bench_catalog_store_sizes():
    for label, n_tables in _sizes().items():
        row = _measure(label, n_tables)
        _rows[label] = row
        # Laziness is the whole point: the probe must be answered from
        # the persisted indexes without pulling entities into memory.
        assert not row["entities_hydrated_by_probe"], label
        # The lazy cold start must beat the full rebuild at every size,
        # and by >=10x at the headline 200k size.
        assert row["cold_s"] < row["rebuild_s"], (
            f"{label}: sqlite cold start slower than full rebuild"
        )
        if label == "200k":
            assert row["cold_speedup"] >= 10.0, (
                f"200k: lazy cold start only {row['cold_speedup']:.1f}x "
                "faster than full rebuild (need >=10x)"
            )
        # Cold-start memory is O(touched), not O(catalog).
        if label == "1k":
            assert row["cold_peak_mb"] < row["rebuild_peak_mb"]
        else:
            assert row["cold_peak_mb"] * 5 < row["rebuild_peak_mb"], (
                f"{label}: cold-start peak {row['cold_peak_mb']:.1f}MB not "
                f"well under rebuild peak {row['rebuild_peak_mb']:.1f}MB"
            )
        # First query after restart within 2x of warm (+5ms fault slack).
        assert (
            row["first_query_ms"] <= 2 * row["warm_query_ms"] + 5.0
        ), (
            f"{label}: first query {row['first_query_ms']:.2f}ms vs warm "
            f"{row['warm_query_ms']:.2f}ms"
        )


def test_bench_catalog_store_report():
    assert _rows, "size benchmark did not run"
    lines = [
        f"{'size':>6}{'artifacts':>10}{'rebuild s':>11}{'cold s':>9}"
        f"{'speedup':>9}{'reb MB':>8}{'cold MB':>9}"
        f"{'first ms':>10}{'warm ms':>9}{'db MB':>7}"
    ]
    for label, row in _rows.items():
        lines.append(
            f"{label:>6}{row['artifacts']:>10}"
            f"{row['rebuild_s']:>11.2f}"
            f"{row['cold_s']:>9.4f}"
            f"{row['cold_speedup']:>9.0f}"
            f"{row['rebuild_peak_mb']:>8.1f}"
            f"{row['cold_peak_mb']:>9.2f}"
            f"{row['first_query_ms']:>10.2f}"
            f"{row['warm_query_ms']:>9.2f}"
            f"{row['db_mb']:>7.1f}"
        )
    payload = {"sizes": _rows}
    write_bench(
        "catalog_store",
        "Restart cost: full in-memory rebuild vs lazy sqlite cold start",
        "\n".join(lines),
        payload,
    )
