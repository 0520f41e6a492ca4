"""View generation from spec + provider result (the §5.1 pipeline).

``ViewFactory.build`` is the single seam where a provider's declared
representation turns into a concrete view.  List-like payloads and
category groups are ranked with the spec's effective weights before
display, so Listing 1 retunes every generated view without code changes.
"""

from __future__ import annotations

from repro.catalog.store import CatalogStore
from repro.core.ranking import Ranker
from repro.core.spec.model import HumboldtSpec, ProviderSpec
from repro.core.views.base import View, make_card, view_id_for
from repro.core.views.categories import CategoriesView, CategoryGroup
from repro.core.views.embedding import EmbeddingView, PlacedCard
from repro.core.views.graph import GraphView, GraphViewEdge
from repro.core.views.hierarchy import HierarchyView, TreeNode
from repro.core.views.listing import ListView, TilesView
from repro.errors import RepresentationError
from repro.providers.base import (
    HierarchyNode,
    ProviderResult,
    Representation,
)

#: How many preview cards a category group carries.
CATEGORY_PREVIEW_SIZE = 5


class ViewFactory:
    """Builds concrete views from provider results.

    All ranking goes through the :class:`Ranker` kernel; score
    breakdowns are built only for the cards a view shows (a capped
    listing's head), and category groups rank to plain ``(id, score)``.
    """

    def __init__(self, store: CatalogStore, spec: HumboldtSpec, ranker: Ranker):
        self.store = store
        self.spec = spec
        self.ranker = ranker

    def build(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        inputs: dict[str, str] | None = None,
        limit: int = 0,
        stale: bool = False,
        notice: str = "",
    ) -> View:
        """Generate the view for *provider* from *result*.

        The result's representation must match the spec's declaration —
        a mismatch means the provider violated its contract.

        *limit* caps list/tiles views to the top-*limit* cards **after**
        live re-ranking (0 = no cap).  Cached provider results carry full
        membership precisely so this truncation happens on fresh values;
        truncating inside the provider would bake usage-ranked membership
        into cache entries that don't declare a usage dependency.

        *stale* marks a view built from an expired cache entry served
        under an open breaker or exhausted deadline (the execution
        layer's stale-while-revalidate path); *notice* carries the
        human-readable reason.  Stale views are also flagged ``degraded``
        so renderers surface them.
        """
        if result.representation != provider.representation:
            raise RepresentationError(
                provider.name,
                f"spec declares {provider.representation.value!r} but the "
                f"endpoint returned {result.representation.value!r}",
            )
        result.validate(provider.name)
        inputs = dict(inputs or {})
        common = {
            "view_id": view_id_for(provider.name, inputs),
            "provider_name": provider.name,
            "title": provider.title,
            "representation": provider.representation.value,
            "description": provider.description,
            "inputs": inputs,
            "stale": stale,
            "degraded": stale,
            "notice": notice,
        }
        rep = provider.representation
        if rep in (Representation.LIST, Representation.TILES):
            return self._build_listing(provider, result, common, limit)
        if rep is Representation.HIERARCHY:
            return HierarchyView(
                roots=tuple(
                    self._tree(root)
                    for root in result.roots
                    if self.store.has_artifact(root.artifact_id)
                ),
                **common,
            )
        if rep is Representation.GRAPH:
            return self._build_graph(result, common)
        if rep is Representation.CATEGORIES:
            return self._build_categories(provider, result, common)
        if rep is Representation.EMBEDDING:
            return EmbeddingView(
                points=tuple(
                    PlacedCard(
                        card=make_card(self.store, point.artifact_id),
                        x=point.x,
                        y=point.y,
                    )
                    for point in result.points
                    if self.store.has_artifact(point.artifact_id)
                ),
                **common,
            )
        raise RepresentationError(provider.name, f"unhandled representation {rep!r}")

    # -- per-representation builders ------------------------------------------

    def _build_listing(
        self,
        provider: ProviderSpec,
        result: ProviderResult,
        common: dict,
        limit: int = 0,
    ) -> View:
        weights = self.spec.effective_ranking(provider.name)
        # Lazy top-k: a capped view only pays score-breakdown construction
        # for the head it displays.  Deleted artifacts may occupy head
        # slots (the ranker scores whatever ids the provider returned),
        # so over-fetch by the item count of dropped ids to keep the
        # visible card count identical to rank-all-then-truncate.
        if limit > 0:
            missing = sum(
                1
                for item in result.items
                if not self.store.has_artifact(item.artifact_id)
            )
            ranked = self.ranker.top_k_items(
                result.items, weights, limit + missing, live=True
            )
        else:
            ranked = self.ranker.rank_items(result.items, weights, live=True)
        cards = tuple(
            make_card(self.store, entry.artifact_id, score=entry.score)
            for entry in ranked
            if self.store.has_artifact(entry.artifact_id)
        )
        if limit > 0:
            cards = cards[:limit]
        if provider.representation is Representation.TILES:
            return TilesView(cards=cards, **common)
        return ListView(cards=cards, **common)

    def _build_graph(self, result: ProviderResult, common: dict) -> GraphView:
        cards = tuple(
            make_card(self.store, node)
            for node in result.nodes
            if self.store.has_artifact(node)
        )
        known = {card.artifact_id for card in cards}
        edges = tuple(
            GraphViewEdge(src=e.src, dst=e.dst, label=e.label, weight=e.weight)
            for e in result.edges
            if e.src in known and e.dst in known
        )
        return GraphView(cards=cards, edges=edges, **common)

    def _build_categories(
        self, provider: ProviderSpec, result: ProviderResult, common: dict
    ) -> CategoriesView:
        weights = self.spec.effective_ranking(provider.name)
        groups = []
        for category in result.categories:
            ids = [
                aid
                for aid in category.artifact_ids
                if self.store.has_artifact(aid)
            ]
            ranked = self.ranker.rank_ids(ids, weights)
            preview = tuple(
                make_card(self.store, aid, score=score)
                for aid, score in ranked[:CATEGORY_PREVIEW_SIZE]
            )
            groups.append(
                CategoryGroup(
                    name=category.name,
                    total=len(ids),
                    preview=preview,
                    all_ids=tuple(aid for aid, _ in ranked),
                )
            )
        return CategoriesView(groups=tuple(groups), **common)

    def _tree(self, node: HierarchyNode) -> TreeNode:
        return TreeNode(
            card=make_card(self.store, node.artifact_id),
            children=tuple(
                self._tree(child)
                for child in node.children
                if self.store.has_artifact(child.artifact_id)
            ),
        )
