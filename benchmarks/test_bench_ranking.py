"""E9 — Section 4.2 / Listing 1: ranking.

Times the ranking engine at catalog scale and demonstrates the paper's
two ranking claims: (1) weight edits reorder results with zero code
changes; (2) per-provider weights override the global fallback.  Includes
the DESIGN.md ablation: global-fallback-only vs. per-provider weights.
"""

from benchmarks.conftest import write_result
from repro.core.ranking import Ranker, combine_rankings
from repro.core.spec.model import RankingWeight
from repro.providers.fields import FieldResolver

LISTING1 = (RankingWeight("favorite", 4.3), RankingWeight("views", 1.5))


def test_e9_rank_catalog_with_listing1(benchmark, mid_store):
    ranker = Ranker(FieldResolver(mid_store))
    ids = mid_store.artifact_ids()

    ranked = benchmark(ranker.rank_ids, ids, LISTING1)

    assert len(ranked) == len(ids)
    scores = [score for _, score in ranked]
    assert scores == sorted(scores, reverse=True)


def test_e9_weight_edit_reorders_without_code(benchmark, mid_store):
    ranker = Ranker(FieldResolver(mid_store))
    ids = mid_store.artifact_ids()[:200]

    by_usage = ranker.rank_ids(ids, LISTING1)

    def rank_by_freshness():
        return ranker.rank_ids(ids, [RankingWeight("freshness", 100.0)])

    by_freshness = benchmark(rank_by_freshness)
    top_usage = [aid for aid, _ in by_usage[:10]]
    top_fresh = [aid for aid, _ in by_freshness[:10]]
    assert top_usage != top_fresh

    overlap = len(set(top_usage) & set(top_fresh))
    write_result(
        "E9_ranking",
        "Listing 1: ranking weight edits reorder results",
        f"top-10 under Listing 1 (favorite 4.3, views 1.5):\n"
        f"  {top_usage}\n"
        f"top-10 under freshness-only weights:\n  {top_fresh}\n"
        f"top-10 overlap: {overlap}/10 (weight edit, zero code changed)",
    )


def test_e9_cross_provider_combination(benchmark, mid_store):
    """§4.2: 'an overall ranking score that can be combined between
    metadata providers'."""
    ranker = Ranker(FieldResolver(mid_store))
    tables = mid_store.by_type("table")[:100]
    workbooks = mid_store.by_type("workbook")
    ranking_a = ranker.top_k(tables, LISTING1, len(tables))
    ranking_b = ranker.top_k(workbooks, LISTING1, len(workbooks))

    combined = benchmark(combine_rankings, [ranking_a, ranking_b])

    assert len(combined) == len(set(tables) | set(workbooks))
    scores = [entry.score for entry in combined]
    assert scores == sorted(scores, reverse=True)


def test_e9_ablation_global_vs_provider_weights(benchmark, mid_app):
    """Ablation: the recents view with its per-provider recency weight vs.
    the same view forced onto the global fallback."""
    from repro.providers.suite import default_spec

    store = mid_app.store
    user = store.users()[0]
    with_override = default_spec()
    without_override = with_override.with_provider(
        with_override.provider("recents").with_ranking()  # drop to fallback
    )

    def generate_both():
        a = mid_app.interface.with_spec(with_override).open_view(
            "recents", user_id=user.id
        )
        b = mid_app.interface.with_spec(without_override).open_view(
            "recents", user_id=user.id
        )
        return (a, b)

    view_a, view_b = benchmark(generate_both)
    assert set(view_a.artifact_ids()) == set(view_b.artifact_ids())
    ordering_differs = view_a.artifact_ids() != view_b.artifact_ids()
    write_result(
        "E9b_ranking_ablation",
        "Per-provider weights vs global fallback (recents view)",
        f"recency-weighted order: {view_a.artifact_ids()[:5]}\n"
        f"global-fallback order:  {view_b.artifact_ids()[:5]}\n"
        f"ordering differs: {ordering_differs}",
    )
