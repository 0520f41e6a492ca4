"""Tests for the ranking engine (Listing 1 semantics)."""

import math

import pytest

from repro.core.ranking import RankedArtifact, Ranker, combine_rankings
from repro.core.spec.model import HumboldtSpec, ProviderSpec, RankingWeight
from repro.providers.base import ScoredArtifact
from repro.providers.fields import FieldResolver


@pytest.fixture
def ranker(tiny_store):
    return Ranker(FieldResolver(tiny_store))


W_VIEWS = RankingWeight("views", 1.5)
W_FAV = RankingWeight("favorite", 4.3)


class TestScore:
    def test_weighted_sum(self, ranker):
        # t-orders: 7 views, 1 favourite
        entry = ranker.score("t-orders", [W_FAV, W_VIEWS])
        assert entry.score == pytest.approx(4.3 * 1 + 1.5 * 7)

    def test_contributions_recorded(self, ranker):
        entry = ranker.score("t-orders", [W_FAV, W_VIEWS])
        assert dict(entry.contributions) == {
            "favorite": pytest.approx(4.3),
            "views": pytest.approx(10.5),
        }

    def test_base_score_added(self, ranker):
        entry = ranker.score("t-orders", [W_VIEWS], base_score=100.0)
        assert entry.score == pytest.approx(100.0 + 10.5)
        assert entry.base_score == 100.0

    def test_prefers_prefetched_fields(self, ranker):
        entry = ranker.score("t-orders", [W_VIEWS], fields={"views": 2.0})
        assert entry.score == pytest.approx(3.0)

    def test_no_weights_is_base_only(self, ranker):
        assert ranker.score("t-orders", []).score == 0.0


class TestRankItems:
    def test_orders_by_score_then_id(self, ranker):
        items = [
            ScoredArtifact("t-web"),       # cold
            ScoredArtifact("t-orders"),    # hot
            ScoredArtifact("t-customers"),
        ]
        ranked = ranker.rank_items(items, [W_VIEWS])
        assert ranked[0].artifact_id == "t-orders"
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_tie_breaks_on_id(self, ranker):
        items = [ScoredArtifact("v-orders"), ScoredArtifact("t-web")]
        ranked = ranker.rank_items(items, [])
        assert [r.artifact_id for r in ranked] == ["t-web", "v-orders"]

    def test_boolean_fields_ignored_in_prefetch(self, ranker):
        items = [ScoredArtifact("t-web", fields={"views": True})]
        ranked = ranker.rank_items(items, [W_VIEWS])
        # bool True must not be treated as views=1; resolver supplies 0.
        assert ranked[0].score == 0.0

    def test_rank_ids(self, ranker):
        ranked = ranker.rank_ids(["t-web", "t-orders"], [W_VIEWS])
        assert ranked == [("t-orders", 10.5), ("t-web", 0.0)]


class TestNonFiniteAttachedFields:
    """NaN and ±inf in a provider-attached field count as 0.0, the same
    finite-number rule the resolver applies to ``extra`` values."""

    def test_top_k_items_agrees_with_rank_items(self, ranker, tiny_store):
        weight = RankingWeight("matched", 1.0)
        values = [3.0, math.nan, 1.0, 5.0, 2.0, math.inf]
        items = [
            ScoredArtifact(aid, fields={"matched": value})
            for aid, value in zip(tiny_store.artifact_ids(), values)
        ]
        full = ranker.rank_items(items, [weight])
        assert ranker.top_k_items(items, [weight], 5) == full[:5]
        assert [(r.artifact_id, r.score) for r in full] == [
            ("t-web", 5.0), ("d-sales", 3.0), ("v-orders", 2.0),
            ("t-orders", 1.0), ("t-customers", 0.0), ("w-q1", 0.0),
        ]


class TestLiveRanking:
    """``rank_items(..., live=True)`` re-resolves resolver-served fields
    so consumers of *cached* provider results rank on current usage."""

    def test_live_mode_reresolves_served_fields(self, ranker):
        # The snapshot says 2 views; the live resolver knows about 7.
        items = [ScoredArtifact("t-orders", fields={"views": 2.0})]
        snapshot = ranker.rank_items(items, [W_VIEWS])
        live = ranker.rank_items(items, [W_VIEWS], live=True)
        assert snapshot[0].score == pytest.approx(1.5 * 2)
        assert live[0].score == pytest.approx(1.5 * 7)

    def test_live_mode_keeps_provider_computed_fields(self, ranker):
        # matched_columns exists only in the provider's snapshot; live
        # mode must not discard fields the resolver cannot serve.
        weight = RankingWeight("matched_columns", 2.0)
        items = [ScoredArtifact("t-orders", fields={"matched_columns": 3.0})]
        live = ranker.rank_items(items, [weight], live=True)
        assert live[0].score == pytest.approx(6.0)


class TestRerankingWithoutCode:
    def test_weight_change_reorders(self, ranker, tiny_store):
        # d-sales has fewer views than t-customers but an 'endorsed' badge.
        by_views = ranker.rank_ids(
            ["d-sales", "t-customers"], [RankingWeight("views", 1.0)]
        )
        by_badge = ranker.rank_ids(
            ["d-sales", "t-customers"], [RankingWeight("endorsed", 10.0)]
        )
        assert by_views[0][0] == "t-customers"
        assert by_badge[0][0] == "d-sales"


class TestCombine:
    def test_scores_accumulate(self):
        left = [RankedArtifact("a", 2.0), RankedArtifact("b", 1.0)]
        right = [RankedArtifact("a", 3.0), RankedArtifact("c", 5.0)]
        combined = combine_rankings([left, right])
        assert [(r.artifact_id, r.score) for r in combined] == [
            ("a", 5.0), ("c", 5.0), ("b", 1.0),
        ]

    def test_empty_input(self):
        assert combine_rankings([]) == []

    def test_single_ranking_passthrough(self):
        ranking = [RankedArtifact("a", 1.0)]
        assert combine_rankings([ranking]) == ranking


class TestEffectiveWeights:
    def test_fallback_through_spec(self):
        spec = HumboldtSpec(
            providers=(
                ProviderSpec(name="p", endpoint="c://p",
                             representation="list"),
            ),
            global_ranking=(W_FAV,),
        )
        assert spec.effective_ranking("p") == (W_FAV,)
