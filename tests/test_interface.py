"""Tests for interface construction: discovery, exploration, preview,
home pages, configuration."""

import pytest

from repro.core.interface.config import ConfigurationPanel
from repro.core.interface.discovery import DiscoveryInterface
from repro.core.interface.exploration import ExplorationEngine
from repro.core.interface.homepage import HomePageManager
from repro.core.interface.preview import build_preview
from repro.core.spec.model import ProviderSpec, Visibility
from repro.errors import (
    ConfigurationError,
    MissingInputError,
    SpecValidationError,
    UnknownProviderError,
)
from repro.providers.execution import ExecutionEngine
from repro.providers.suite import default_spec


@pytest.fixture
def interface(tiny_store, tiny_registry):
    engine = ExecutionEngine(tiny_registry, store=tiny_store)
    return DiscoveryInterface(tiny_store, engine, default_spec())


class TestDiscoveryInterface:
    def test_validates_spec_on_construction(self, tiny_store, tiny_registry):
        bad = default_spec().with_provider(
            ProviderSpec(name="ghost", endpoint="catalog://nowhere",
                         representation="list")
        )
        with pytest.raises(SpecValidationError, match="not registered"):
            DiscoveryInterface(
                tiny_store, ExecutionEngine(tiny_registry, store=tiny_store), bad
            )

    def test_overview_tabs_follow_spec_order(self, interface):
        tabs = interface.overview_tabs(user_id="u-ann")
        names = [t.provider_name for t in tabs]
        overview_specs = [
            p.name for p in default_spec().visible_in("overview")
        ]
        assert names == [n for n in overview_specs if n in names]

    def test_overview_excludes_input_requiring_providers(self, interface):
        names = {t.provider_name
                 for t in interface.overview_tabs(user_id="u-ann")}
        assert "owned_by" not in names
        assert "joinable" not in names

    def test_team_views_present_with_ambient_team(self, interface):
        names = {t.provider_name
                 for t in interface.overview_tabs(user_id="u-ann")}
        assert "team_docs" in names  # u-ann's first team is t-1

    def test_open_view_with_inputs(self, interface):
        view = interface.open_view("badged", inputs={"badge": "endorsed"})
        assert set(view.artifact_ids()) == {"t-orders", "d-sales"}

    def test_open_view_missing_required_input(self, interface):
        with pytest.raises(MissingInputError):
            interface.open_view("badged")

    def test_open_view_unknown_provider(self, interface):
        with pytest.raises(UnknownProviderError):
            interface.open_view("nope")

    def test_search_returns_list_view(self, interface):
        result, view = interface.search("badged: endorsed")
        assert view.representation == "list"
        assert view.artifact_ids() == result.artifact_ids()
        assert view.provider_name == "search"

    def test_filter_view(self, interface):
        view = interface.open_view("of_type",
                                   inputs={"artifact_type": "table"})
        filtered = interface.filter_view(view, "badged: endorsed")
        assert filtered.artifact_ids() == ["t-orders"]

    def test_with_spec_regenerates(self, interface):
        smaller = interface.spec.without_provider("recents")
        regenerated = interface.with_spec(smaller)
        names = {t.provider_name
                 for t in regenerated.overview_tabs(user_id="u-ann")}
        assert "recents" not in names
        # original interface unaffected
        original = {t.provider_name
                    for t in interface.overview_tabs(user_id="u-ann")}
        assert "recents" in original

    def test_describe_provider(self, interface):
        text = interface.describe_provider("joinable")
        assert "Joinable" in text
        assert "artifact" in text
        assert "graph" in text
        assert interface.describe_provider("nope") == ""

    def test_provider_titles(self, interface):
        titles = interface.provider_titles()
        assert titles["owned_by"] == "Owned By"


class TestExploration:
    def test_derive_input_values(self, interface):
        engine = ExplorationEngine(interface)
        values = engine.derive_input_values("t-orders")
        assert values["artifact"] == ["t-orders"]
        assert values["user"] == ["u-ann"]
        assert values["badge"] == ["endorsed"]
        assert values["artifact_type"] == ["table"]
        assert values["team"] == ["t-1"]
        assert values["text"] == ["sales"]

    def test_explore_surfaces_selection_driven_views(self, interface):
        engine = ExplorationEngine(interface)
        surfaced = engine.explore("t-orders", user_id="u-ann")
        by_provider = {s.provider_name for s in surfaced}
        assert {"owned_by", "badged", "of_type", "similar",
                "joinable", "lineage"} <= by_provider

    def test_explore_excludes_selected_from_lists(self, interface):
        engine = ExplorationEngine(interface)
        for surfaced in engine.explore("t-orders", user_id="u-ann"):
            if surfaced.view.representation in ("list", "tiles"):
                assert "t-orders" not in surfaced.view.artifact_ids()

    def test_explore_keeps_anchor_in_graphs(self, interface):
        engine = ExplorationEngine(interface)
        graph = next(
            s for s in engine.explore("t-orders", user_id="u-ann")
            if s.provider_name == "joinable"
        )
        assert "t-orders" in graph.view.artifact_ids()

    def test_explore_drops_empty_views(self, interface):
        engine = ExplorationEngine(interface)
        # w-q1 has no badges and no lineage children: fewer panels, none empty
        for surfaced in engine.explore("w-q1", user_id="u-dee"):
            assert not surfaced.view.is_empty()

    def test_reasons_are_descriptive(self, interface):
        engine = ExplorationEngine(interface)
        badged = next(
            s for s in engine.explore("t-orders", user_id="u-ann")
            if s.provider_name == "badged"
        )
        assert badged.reason == "badge = endorsed"


class TestPreview:
    def test_table_preview_has_snippet(self, tiny_store):
        preview = build_preview(tiny_store, "t-orders")
        assert preview.has_snippet()
        assert preview.columns[0] == "order_id"
        assert preview.snippet[0][0] == "o-0"

    def test_non_table_preview_no_snippet(self, tiny_store):
        preview = build_preview(tiny_store, "d-sales")
        assert not preview.has_snippet()
        assert preview.artifact_type == "dashboard"

    def test_preview_lineage_names(self, tiny_store):
        preview = build_preview(tiny_store, "v-orders")
        assert preview.upstream == ("ORDERS",)
        assert preview.downstream == ("Sales Dashboard",)

    def test_preview_usage_facts(self, tiny_store):
        preview = build_preview(tiny_store, "t-orders")
        assert preview.view_count == 7
        assert preview.favorite_count == 1
        assert preview.created_days_ago == pytest.approx(90.0, abs=0.1)


class TestHomePages:
    def test_fallback_to_overview(self, interface, tiny_store):
        manager = HomePageManager(interface)
        page = manager.home_page("t-1", user_id="u-ann")
        assert page.title == "Home of Alpha"
        assert page.tabs  # default tabs present

    def test_configure_and_render(self, interface):
        manager = HomePageManager(interface)
        new_spec = manager.configure(
            "t-1", ["recents", "badges"], acting_user="u-ann", title="Alpha HQ"
        )
        regenerated = interface.with_spec(new_spec)
        page = HomePageManager(regenerated).home_page("t-1", user_id="u-ann")
        assert page.title == "Alpha HQ"
        assert page.provider_names() == ["recents", "badges"]

    def test_configure_requires_admin(self, interface):
        manager = HomePageManager(interface)
        with pytest.raises(ConfigurationError, match="not an admin"):
            manager.configure("t-1", ["recents"], acting_user="u-bob")

    def test_configure_unknown_provider(self, interface):
        manager = HomePageManager(interface)
        with pytest.raises(UnknownProviderError):
            manager.configure("t-1", ["bogus"], acting_user="u-ann")

    def test_configure_duplicates_rejected(self, interface):
        manager = HomePageManager(interface)
        with pytest.raises(ConfigurationError, match="duplicates"):
            manager.configure("t-1", ["recents", "recents"],
                              acting_user="u-ann")

    def test_reconfigure_replaces_page(self, interface):
        manager = HomePageManager(interface)
        spec1 = manager.configure("t-1", ["recents"], acting_user="u-ann")
        manager2 = HomePageManager(interface.with_spec(spec1))
        spec2 = manager2.configure("t-1", ["badges"], acting_user="u-ann")
        pages = spec2.custom["team_home_pages"]
        assert len([p for p in pages if p["team"] == "t-1"]) == 1
        assert pages[-1]["providers"] == ["badges"]

    def test_removed_provider_skipped_on_render(self, interface):
        manager = HomePageManager(interface)
        spec1 = manager.configure("t-1", ["recents", "badges"],
                                  acting_user="u-ann")
        # The provider disappears from the spec later (spec drift).
        spec2 = spec1.without_provider("recents")
        regenerated = interface.with_spec(spec2)
        page = HomePageManager(regenerated).home_page("t-1",
                                                      user_id="u-ann")
        assert page.provider_names() == ["badges"]


class TestConfigurationPanel:
    def test_rows_list_all_providers(self, interface):
        panel = ConfigurationPanel(interface, "team", "t-1",
                                   acting_user="u-ann")
        rows = panel.rows()
        assert len(rows) == len(interface.spec)
        assert all(row.enabled for row in rows)

    def test_team_scope_requires_admin(self, interface):
        with pytest.raises(ConfigurationError, match="not an admin"):
            ConfigurationPanel(interface, "team", "t-1", acting_user="u-bob")

    def test_toggle_hides_in_team_layer(self, interface):
        panel = ConfigurationPanel(interface, "team", "t-1",
                                   acting_user="u-ann")
        panel.set_enabled("recents", False)
        visible = interface.customization.effective_providers(
            interface.spec, "overview", team_id="t-1"
        )
        assert "recents" not in [p.name for p in visible]
        assert not next(r for r in panel.rows()
                        if r.name == "recents").enabled

    def test_reenable(self, interface):
        panel = ConfigurationPanel(interface, "user", "u-ann")
        panel.set_enabled("recents", False)
        panel.set_enabled("recents", True)
        assert "recents" in panel.enabled_names()

    def test_toggle_unknown_provider(self, interface):
        panel = ConfigurationPanel(interface, "user", "u-ann")
        with pytest.raises(UnknownProviderError):
            panel.set_enabled("bogus", False)

    def test_reorder(self, interface):
        panel = ConfigurationPanel(interface, "user", "u-ann")
        panel.reorder(["most_viewed", "recents"])
        visible = interface.customization.effective_providers(
            interface.spec, "overview", user_id="u-ann"
        )
        assert [p.name for p in visible][:2] == ["most_viewed", "recents"]

    def test_reset(self, interface):
        panel = ConfigurationPanel(interface, "user", "u-ann")
        panel.set_enabled("recents", False)
        panel.reset()
        assert "recents" in panel.enabled_names()

    def test_invalid_scope(self, interface):
        with pytest.raises(ConfigurationError, match="scope"):
            ConfigurationPanel(interface, "galaxy", "x")
