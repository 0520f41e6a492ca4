"""Property-based tests for substrate invariants: MinHash accuracy,
store index consistency, spec serialization, ranking monotonicity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.model import Artifact, BadgeAssignment, Column
from repro.catalog.store import CatalogStore
from repro.catalog.usage import UsageLog
from repro.catalog.model import UsageEvent
from repro.core.ranking import Ranker
from repro.core.spec.model import (
    HumboldtSpec,
    ProviderSpec,
    RankingWeight,
    Visibility,
)
from repro.core.spec.serialization import spec_from_dict, spec_to_dict
from repro.metadata.sketches import MinHasher, exact_jaccard
from repro.providers.base import InputSpec
from repro.providers.fields import FieldResolver
from repro.util.ids import slugify

# -- MinHash accuracy ---------------------------------------------------------

value_sets = st.sets(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6),
    min_size=5,
    max_size=60,
)

_HASHER = MinHasher(num_perm=256)


class TestMinHashProperties:
    @given(left=value_sets, right=value_sets)
    @settings(max_examples=60, deadline=None)
    def test_estimate_within_tolerance(self, left, right):
        exact = exact_jaccard(left, right)
        estimate = _HASHER.signature(left).jaccard(_HASHER.signature(right))
        # 256 permutations: std error ~ sqrt(j(1-j)/256) <= 0.032; allow 5x
        assert abs(estimate - exact) <= 0.17

    @given(values=value_sets)
    @settings(max_examples=30, deadline=None)
    def test_self_similarity_is_one(self, values):
        signature = _HASHER.signature(values)
        assert signature.jaccard(signature) == 1.0

    @given(left=value_sets, right=value_sets)
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, left, right):
        a = _HASHER.signature(left)
        b = _HASHER.signature(right)
        assert a.jaccard(b) == b.jaccard(a)


# -- store index consistency ------------------------------------------------------

slug_texts = st.text(alphabet="abcdefghij _-", min_size=1, max_size=12)

artifact_dicts = st.fixed_dictionaries({
    "name": st.text(alphabet="ABCDEFGH_ ", min_size=1, max_size=12),
    "artifact_type": st.sampled_from(
        ["table", "workbook", "dashboard", "visualization"]
    ),
    "tags": st.lists(
        st.sampled_from(["sales", "hr", "ops", "ml"]), max_size=3,
        unique=True,
    ),
    "badge": st.sampled_from([None, "endorsed", "certified"]),
})


class TestStoreIndexProperties:
    @given(specs=st.lists(artifact_dicts, min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_indexes_agree_with_scan(self, specs):
        from repro.catalog.model import User

        store = CatalogStore()
        store.add_user(User(id="u", name="U"))
        for index, data in enumerate(specs):
            badges = ()
            if data["badge"]:
                badges = (BadgeAssignment(data["badge"], "u", 1.0),)
            store.add_artifact(Artifact(
                id=f"a-{index:03d}",
                name=data["name"],
                artifact_type=data["artifact_type"],
                owner_id="u",
                tags=tuple(data["tags"]),
                badges=badges,
                created_at=1.0,
            ))
        # type index == scan
        for artifact_type in ("table", "workbook", "dashboard",
                              "visualization"):
            scanned = sorted(
                a.id for a in store.artifacts()
                if a.artifact_type.value == artifact_type
            )
            assert store.by_type(artifact_type) == scanned
        # badge index == scan
        for badge in ("endorsed", "certified"):
            scanned = sorted(
                a.id for a in store.artifacts() if a.has_badge(badge)
            )
            assert store.by_badge(badge) == scanned
        # tag index == scan
        for tag in ("sales", "hr", "ops", "ml"):
            scanned = sorted(
                a.id for a in store.artifacts() if tag in a.tags
            )
            assert store.by_tag(tag) == scanned


events = st.lists(
    st.tuples(
        st.sampled_from(["a1", "a2", "a3"]),
        st.sampled_from(["u1", "u2"]),
        st.sampled_from(["view", "favorite", "unfavorite", "edit", "open"]),
        st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
    ),
    max_size=40,
)


class TestUsageProperties:
    @given(sequence=events)
    @settings(max_examples=50, deadline=None)
    def test_favorite_count_matches_set(self, sequence):
        log = UsageLog()
        for artifact, user, action, ts in sequence:
            log.record(UsageEvent(artifact, user, action, ts))
        for artifact in ("a1", "a2", "a3"):
            stats = log.stats(artifact)
            assert stats.favorite_count == len(stats.favorited_by)
            assert stats.favorite_count >= 0

    @given(sequence=events)
    @settings(max_examples=50, deadline=None)
    def test_view_count_matches_event_count(self, sequence):
        log = UsageLog()
        for artifact, user, action, ts in sequence:
            log.record(UsageEvent(artifact, user, action, ts))
        for artifact in ("a1", "a2", "a3"):
            expected = sum(
                1 for a, _, action, _ in sequence
                if a == artifact and action == "view"
            )
            assert log.stats(artifact).view_count == expected


# -- spec serialization round-trip ------------------------------------------------

provider_specs = st.builds(
    ProviderSpec,
    name=slug_texts.map(slugify),
    endpoint=slug_texts.map(lambda s: f"catalog://{slugify(s)}"),
    representation=st.sampled_from(
        ["list", "tiles", "graph", "hierarchy", "categories", "embedding"]
    ),
    category=st.sampled_from(["interaction", "annotation", "relatedness"]),
    description=st.text(max_size=30),
    inputs=st.lists(
        st.builds(
            InputSpec,
            name=st.sampled_from(["user", "team", "artifact", "q"]),
            input_type=st.sampled_from(
                ["user", "team", "artifact", "badge", "text"]
            ),
            required=st.booleans(),
        ),
        max_size=2,
        unique_by=lambda i: i.name,
    ).map(tuple),
    visibility=st.builds(
        Visibility,
        overview=st.booleans(),
        exploration=st.booleans(),
        search=st.booleans(),
    ),
    ranking=st.lists(
        st.builds(
            RankingWeight,
            field=st.sampled_from(["views", "favorite", "recency"]),
            weight=st.floats(min_value=-10, max_value=10,
                             allow_nan=False),
        ),
        max_size=3,
    ).map(tuple),
)

humboldt_specs = st.builds(
    HumboldtSpec,
    providers=st.lists(
        provider_specs, max_size=5, unique_by=lambda p: p.name
    ).map(tuple),
    global_ranking=st.lists(
        st.builds(
            RankingWeight,
            field=st.sampled_from(["views", "favorite"]),
            weight=st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        max_size=2,
    ).map(tuple),
)


class TestSpecSerializationProperty:
    @given(spec=humboldt_specs)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_identity(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec


# -- ranking monotonicity -------------------------------------------------------------


class TestRankingProperties:
    @given(
        weight=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        views_low=st.integers(min_value=0, max_value=50),
        delta=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_more_views_never_rank_lower(self, weight, views_low, delta):
        from repro.catalog.model import User

        store = CatalogStore()
        store.add_user(User(id="u", name="U"))
        store.add_artifact(Artifact(id="low", name="L",
                                    artifact_type="table", owner_id="u",
                                    created_at=1.0))
        store.add_artifact(Artifact(id="high", name="H",
                                    artifact_type="table", owner_id="u",
                                    created_at=1.0))
        for index in range(views_low):
            store.record("low", "u", "view", at=10.0 + index)
        for index in range(views_low + delta):
            store.record("high", "u", "view", at=10.0 + index)
        ranker = Ranker(FieldResolver(store))
        ranked = ranker.rank_ids(
            ["low", "high"], [RankingWeight("views", weight)]
        )
        assert ranked[0][0] == "high"
