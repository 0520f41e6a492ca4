"""BENCH_planner — cost-based planning and lazy top-k trajectory.

Measures, at ~1k and ~50k artifacts:

* a **skewed conjunction** whose leftmost branch is the whole table set
  and whose planned-empty branch matches nothing — naive left-to-right
  evaluation fetches every branch, the planner fetches exactly one;
* a **selective conjunction** (huge branch & rare tag) where ordering and
  the candidate filter shrink the intermediate lists;
* a **large-universe Not** filter query, where the planner subtracts from
  the running intersection instead of materialising the universe-sized
  complement;
* **lazy top-k ranking** (`Ranker.top_k`) versus rank-everything-then-cut
  (`Ranker.rank_ids`) over the full catalog.

The planned evaluator must beat the naive one on the skewed conjunction
at every size, and lazy top-k must beat the full sort at 50k.  Emits
``benchmarks/results/BENCH_planner.json`` plus the usual text table.

Set ``BENCH_SMOKE=1`` to run the small size only (CI smoke).
A smoke run writes ``BENCH_planner.smoke.json`` and ``.txt`` instead.
"""

import time

from benchmarks.conftest import SMOKE, write_bench
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.ranking import Ranker
from repro.providers.builtin import builtin_engine
from repro.providers.fields import FieldResolver
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog

#: label -> n_tables (the generator adds dashboards/workbooks/documents,
#: so artifact counts land near the labels).
SIZES = {"1k": 550, "50k": 27500}

TOP_K = 50

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


def _evaluator(store, planning: bool) -> QueryEvaluator:
    evaluator = QueryEvaluator(
        store,
        builtin_engine(store),
        QueryLanguage(default_spec()),
        Ranker(FieldResolver(store)),
    )
    evaluator.planning = planning
    return evaluator


def _cold_search_s(evaluator, query: str, rounds: int) -> float:
    def run():
        evaluator.engine.invalidate()
        evaluator.search(query, limit=TOP_K)

    return _best_of(run, rounds=rounds)


def _measure(label: str, n_tables: int) -> dict:
    store = generate_catalog(
        SynthConfig(seed=7, n_tables=n_tables,
                    usage_events=max(1000, n_tables // 2))
    )
    planned = _evaluator(store, planning=True)
    naive = _evaluator(store, planning=False)
    rounds = 3 if n_tables < 5000 else 2
    rare_tag = min(
        store.tags_in_use(), key=lambda t: store.index_size("tag", t)
    )

    # Written worst-first so naive evaluation pays the whole table set
    # before discovering the conjunction is empty / tiny.
    skewed = "type: table & badged: endorsed & tagged: no-such-tag-at-all"
    selective = f"type: table & tagged: {rare_tag}"
    negated = f"tagged: {rare_tag} & !type: table"

    results = {}
    for name, query in (
        ("skewed", skewed), ("selective", selective), ("not", negated)
    ):
        results[f"{name}_planned_ms"] = (
            _cold_search_s(planned, query, rounds) * 1000
        )
        results[f"{name}_naive_ms"] = (
            _cold_search_s(naive, query, rounds) * 1000
        )

    planned.engine.invalidate()
    explain = planned.search(skewed)
    fetches_skipped = explain.plan.fetches_skipped

    # Lazy top-k vs rank-everything-then-cut over the full catalog.
    ids = store.artifact_ids()
    weights = planned.language.spec.global_ranking
    ranker = planned.ranker
    full_sort_s = _best_of(
        lambda: ranker.rank_ids(ids, weights)[:TOP_K], rounds=rounds
    )
    top_k_s = _best_of(
        lambda: ranker.top_k(ids, weights, TOP_K), rounds=rounds
    )

    return {
        "artifacts": store.artifact_count,
        **results,
        "skewed_fetches_skipped": fetches_skipped,
        "full_sort_ms": full_sort_s * 1000,
        "top_k_ms": top_k_s * 1000,
        "top_k_speedup": full_sort_s / top_k_s if top_k_s else 0.0,
    }


def test_bench_planner_sizes():
    for label, n_tables in _sizes().items():
        row = _measure(label, n_tables)
        _rows[label] = row
        # The planned-empty skip is the planner's headline saving: the
        # planned evaluator must beat naive left-to-right at every size.
        assert row["skewed_planned_ms"] < row["skewed_naive_ms"], (
            f"{label}: planned skewed-And slower than naive"
        )
        assert row["skewed_fetches_skipped"] >= 2
        # Lazy top-k must win where it matters (50k); at toy sizes only
        # guard against a gross regression — the timings are noise-bound.
        if label == "50k":
            assert row["top_k_ms"] < row["full_sort_ms"], (
                "lazy top-k slower than full sort at 50k"
            )
        else:
            assert row["top_k_ms"] <= row["full_sort_ms"] * 1.5


def test_bench_planner_report():
    assert _rows, "size benchmark did not run"
    lines = [
        f"{'size':>6}{'artifacts':>10}{'skew plan':>11}{'skew naive':>12}"
        f"{'sel plan':>10}{'sel naive':>11}{'not plan':>10}{'not naive':>11}"
        f"{'sort ms':>9}{'topk ms':>9}"
    ]
    for label, row in _rows.items():
        lines.append(
            f"{label:>6}{row['artifacts']:>10}"
            f"{row['skewed_planned_ms']:>11.1f}"
            f"{row['skewed_naive_ms']:>12.1f}"
            f"{row['selective_planned_ms']:>10.1f}"
            f"{row['selective_naive_ms']:>11.1f}"
            f"{row['not_planned_ms']:>10.1f}"
            f"{row['not_naive_ms']:>11.1f}"
            f"{row['full_sort_ms']:>9.1f}"
            f"{row['top_k_ms']:>9.1f}"
        )
    payload = {"sizes": _rows}
    write_bench(
        "planner",
        "Cost-based planning vs naive evaluation; lazy top-k vs full sort",
        "\n".join(lines),
        payload,
    )
