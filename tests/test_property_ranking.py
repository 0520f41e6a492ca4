"""Differential property: every ranking path ≡ per-id ``score()`` + full sort.

The reference oracle lives in this file: it scores each id on its own
with :meth:`Ranker.score` and sorts on ``(-score, id)`` — the per-item
ranking every view used before the columnar kernel.  The four
:class:`Ranker` entry points and the categories and listing views built
by :class:`ViewFactory` must agree with it on ids, order and scores
(breakdowns too, where an entry point returns them), under interleaved
usage events, badge grants, new artifacts with ``extra`` fields, clock
advances and re-registered custom resolvers.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.model import Artifact, User
from repro.catalog.store import CatalogStore
from repro.core.ranking import Ranker
from repro.core.spec.model import HumboldtSpec, ProviderSpec, RankingWeight
from repro.core.views.factory import CATEGORY_PREVIEW_SIZE, ViewFactory
from repro.providers.base import (
    Category,
    ProviderResult,
    Representation,
    ScoredArtifact,
    list_result,
)
from repro.providers.fields import FieldResolver
from repro.util.clock import DAY, SimulationClock

USERS = ("u-1", "u-2", "u-3")
FIELDS = (
    "views", "favorite", "recency", "unique_viewers", "freshness",
    "badge_count", "endorsed", "quality", "custom", "absent",
)
#: Fields that resolve without the artifact record, so items may name
#: ids the catalog does not hold (``custom`` too, once registered).
RECORDLESS = {"views", "favorite", "recency", "unique_viewers"}
GHOST = "ghost"

numbers = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-1000, max_value=1000),
)
attached_values = st.one_of(
    numbers,
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "7", None]),
)
extra_values = st.one_of(
    numbers, st.sampled_from([math.nan, math.inf, "2.5", "x", True, None])
)
weights_strategy = st.lists(
    st.builds(
        RankingWeight,
        field=st.sampled_from(FIELDS),
        weight=st.sampled_from([-2.0, 0.5, 1.0, 1.5, 4.3, 10.0]),
    ),
    max_size=4,
)
ops = st.one_of(
    st.tuples(
        st.just("event"),
        st.integers(0, 30),
        st.sampled_from(USERS),
        st.sampled_from(["view", "open", "edit", "favorite", "unfavorite"]),
    ),
    st.tuples(
        st.just("badge"),
        st.integers(0, 30),
        st.sampled_from(["endorsed", "certified", "deprecated"]),
    ),
    st.tuples(st.just("add"), extra_values),
    st.tuples(st.just("advance"), st.floats(min_value=0.1, max_value=5.0)),
    st.tuples(st.just("register"), st.sampled_from(["custom", "views"]),
              st.integers(1, 5)),
)


def _store() -> CatalogStore:
    clock = SimulationClock()
    clock.advance(days=30)
    store = CatalogStore(clock=clock)
    for uid in USERS:
        store.add_user(User(id=uid, name=uid.upper()))
    for index in range(6):
        _add(store, {"quality": float(index % 3)} if index % 2 else {})
    return store


def _add(store: CatalogStore, extra: dict) -> None:
    index = store.artifact_count
    store.add_artifact(Artifact(
        id=f"a-{index:02d}", name=f"A{index}", artifact_type="table",
        owner_id="u-1", created_at=store.clock.now() - (index % 4) * DAY,
        extra=extra,
    ))


def _apply(store: CatalogStore, resolver: FieldResolver, op: tuple) -> None:
    ids = store.artifact_ids()
    kind = op[0]
    if kind == "event":
        store.record(ids[op[1] % len(ids)], op[2], op[3])
    elif kind == "badge":
        store.grant_badge(ids[op[1] % len(ids)], op[2], "u-2")
    elif kind == "add":
        _add(store, {} if op[1] is None else {"quality": op[1]})
    elif kind == "advance":
        store.clock.advance(days=op[1])
    else:
        _, field, factor = op
        resolver.register(
            field, lambda aid, factor=factor: float(len(aid) * factor % 7)
        )


# -- the reference oracle ---------------------------------------------------


def _usable(fields: dict, resolver: FieldResolver, live: bool) -> dict:
    """Attached numbers a ranker may use: no bools, non-finite -> 0.0,
    resolver-served fields dropped in live mode."""
    usable = {}
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if live and resolver.serves(name):
            continue
        usable[name] = float(value) if math.isfinite(value) else 0.0
    return usable


def _oracle(ranker: Ranker, rows, weights) -> list:
    """Score each ``(id, base, fields)`` row alone, then sort all of them."""
    scored = [
        ranker.score(aid, weights, base_score=base, fields=fields)
        for aid, base, fields in rows
    ]
    scored.sort(key=lambda entry: (-entry.score, entry.artifact_id))
    return scored


def _pairs(entries) -> list[tuple[str, float]]:
    return [(entry.artifact_id, entry.score) for entry in entries]


# -- the check ----------------------------------------------------------------


def _check(store, resolver, ranker, data) -> None:
    known = store.artifact_ids()
    weights = data.draw(weights_strategy, label="weights")
    limit = data.draw(st.integers(-1, len(known) + 2), label="limit")
    ids = data.draw(st.lists(st.sampled_from(known), max_size=12), label="ids")
    base_scores = data.draw(
        st.dictionaries(st.sampled_from(known), numbers, max_size=4),
        label="base_scores",
    )
    live = data.draw(st.booleans(), label="live")
    recordless = RECORDLESS | ({"custom"} if resolver.serves("custom") else set())
    item_ids = known + [GHOST] if {w.field for w in weights} <= recordless else known
    items = data.draw(
        st.lists(
            st.builds(
                ScoredArtifact,
                artifact_id=st.sampled_from(item_ids),
                score=numbers,
                fields=st.dictionaries(
                    st.sampled_from(FIELDS), attached_values, max_size=3
                ),
            ),
            max_size=10,
        ),
        label="items",
    )

    by_id = _oracle(ranker, [(aid, 0.0, None) for aid in ids], weights)
    assert ranker.rank_ids(ids, weights) == _pairs(by_id)

    based = _oracle(
        ranker, [(aid, base_scores.get(aid, 0.0), None) for aid in ids], weights
    )
    assert ranker.top_k(ids, weights, limit, base_scores) == (
        based[:limit] if limit > 0 else []
    )

    expected_items = _oracle(
        ranker,
        [(i.artifact_id, i.score, _usable(i.fields, resolver, live)) for i in items],
        weights,
    )
    assert ranker.rank_items(items, weights, live=live) == expected_items
    assert ranker.top_k_items(items, weights, limit, live=live) == (
        expected_items[:limit] if limit > 0 else expected_items
    )

    # Views: categories rank whole groups, listings rank items live.
    spec = HumboldtSpec(providers=(
        ProviderSpec(name="cats", endpoint="test://cats",
                     representation="categories", ranking=tuple(weights)),
        ProviderSpec(name="items", endpoint="test://items",
                     representation="list", ranking=tuple(weights)),
    ))
    factory = ViewFactory(store, spec, ranker)
    groups = {"first": tuple(ids), "second": tuple(known[::2]) + (GHOST,)}
    view = factory.build(
        spec.provider("cats"),
        ProviderResult(
            representation=Representation.CATEGORIES,
            categories=tuple(Category(n, m) for n, m in groups.items()),
        ),
    )
    for group in view.groups:
        members = [aid for aid in groups[group.name] if aid != GHOST]
        expected = _pairs(_oracle(ranker, [(a, 0.0, None) for a in members], weights))
        assert group.total == len(members)
        assert list(group.all_ids) == [aid for aid, _ in expected]
        assert _pairs(group.preview) == expected[:CATEGORY_PREVIEW_SIZE]

    cap = max(limit, 0)
    listing = factory.build(spec.provider("items"), list_result(items), limit=cap)
    expected_cards = [
        pair
        for pair in _pairs(_oracle(
            ranker,
            [(i.artifact_id, i.score, _usable(i.fields, resolver, True))
             for i in items],
            weights,
        ))
        if store.has_artifact(pair[0])
    ]
    assert _pairs(listing.cards) == (
        expected_cards[:cap] if cap else expected_cards
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), script=st.lists(ops, max_size=10))
def test_ranking_paths_match_per_item_oracle(data, script):
    store = _store()
    resolver = FieldResolver(store)
    ranker = Ranker(resolver)
    _check(store, resolver, ranker, data)
    for op in script:
        _apply(store, resolver, op)
        _check(store, resolver, ranker, data)
