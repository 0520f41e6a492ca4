"""Tests for the workbook host app and sessions."""

import pytest

from repro.errors import (
    ConfigurationError,
    SpecValidationError,
    UnknownEntityError,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import ExecutionEngine
from repro.providers.faults import FlakyEndpoint
from repro.providers.registry import EndpointRegistry
from repro.workbook.app import WorkbookApp
from repro.workbook.events import EventLog, UiEvent


class TestEventLog:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            UiEvent(kind="teleported")

    def test_record_and_query(self):
        log = EventLog()
        log.record("search", detail="q1")
        log.record("tab_selected", detail="recents")
        log.record("search", detail="q2")
        assert len(log) == 3
        assert log.count("search") == 2
        assert [e.detail for e in log.of_kind("search")] == ["q1", "q2"]

    def test_first_of(self):
        log = EventLog()
        log.record("tab_selected", detail="a")
        log.record("search", detail="q")
        assert log.first_of("search", "tab_selected").kind == "tab_selected"
        assert log.first_of("assist") is None

    def test_clear(self):
        log = EventLog()
        log.record("search")
        log.clear()
        assert len(log) == 0


class TestApp:
    def test_session_validates_user(self, tiny_app):
        with pytest.raises(UnknownEntityError):
            tiny_app.session("ghost")

    def test_session_resolves_team(self, tiny_app):
        session = tiny_app.session("u-dee")
        assert session.team_id == "t-2"

    def test_update_spec_regenerates(self, tiny_app):
        smaller = tiny_app.spec.without_provider("recents")
        tiny_app.update_spec(smaller)
        session = tiny_app.session("u-ann")
        assert "recents" not in [t.provider_name for t in session.open_home()]


class TestAppOnHostEngine:
    """A host-built engine is the app's one execution layer: the app
    serves from the engine's registry and validates the spec against it."""

    def test_builtin_engine_serves_like_the_default_app(self, tiny_store):
        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(tiny_store))
        engine = ExecutionEngine(registry, store=tiny_store)
        with WorkbookApp(tiny_store, engine=engine) as app, \
                WorkbookApp(tiny_store) as default:
            assert app.registry is engine.registry
            tabs = app.interface.overview_tabs(user_id="u-ann")
            assert [t.provider_name for t in tabs] == [
                t.provider_name
                for t in default.interface.overview_tabs(user_id="u-ann")
            ]
            assert app.interface.last_errors == []
            result, _ = app.interface.search("type: table")
            expected, _ = default.interface.search("type: table")
            assert result.total == expected.total > 0
            # An endpoint swapped through the app's registry is the one
            # the engine serves.
            original = app.registry.resolve("catalog://most_viewed")
            app.registry.register(
                "catalog://most_viewed",
                FlakyEndpoint(original, fail_on=lambda i: True),
                replace=True,
            )
            names = [
                t.provider_name
                for t in app.interface.overview_tabs(user_id="u-ann")
            ]
            assert "most_viewed" not in names
            assert [name for name, _ in app.interface.last_errors] == [
                "most_viewed"
            ]

    def test_engine_without_the_spec_endpoints_is_rejected(self, tiny_store):
        engine = ExecutionEngine(EndpointRegistry(), store=tiny_store)
        with pytest.raises(SpecValidationError, match="not registered"):
            WorkbookApp(tiny_store, engine=engine)
        engine.close()


class TestSessionNavigation:
    def test_open_home_records_event(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.open_home()
        assert session.events.count("home_opened") == 1

    def test_select_tab_by_title_and_index(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.open_home()
        by_title = session.select_tab("Most Viewed")
        assert by_title.provider_name == "most_viewed"
        by_index = session.select_tab(0)
        assert session.active_view() is by_index.view

    def test_select_tab_errors(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.open_home()
        with pytest.raises(KeyError):
            session.select_tab("No Such Tab")
        with pytest.raises(IndexError):
            session.select_tab(99)

    def test_active_view_none_before_home(self, tiny_app):
        assert tiny_app.session("u-ann").active_view() is None


class TestSessionSearch:
    def test_search_appends_tab(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.open_home()
        n_tabs = len(session.tabs())
        result = session.search("badged: endorsed")
        assert len(session.tabs()) == n_tabs + 1
        assert session.tabs()[-1].provider_name == "search"
        assert session.last_search() is result

    def test_filter_active_view_replaces_tab(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.open_home()
        session.select_tab("Most Viewed")
        before = session.active_view().count()
        filtered = session.filter_active_view("type: table")
        assert session.active_view().count() == filtered.count()
        assert filtered.count() <= before

    def test_filter_without_view_raises(self, tiny_app):
        with pytest.raises(ConfigurationError):
            tiny_app.session("u-ann").filter_active_view("x")

    def test_suggest_records_event(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.suggest("ow")
        assert session.events.count("suggestions_shown") == 1


class TestSessionSelection:
    def test_select_artifact_and_preview(self, tiny_app):
        session = tiny_app.session("u-ann")
        preview = session.select_artifact("t-orders")
        assert preview.name == "ORDERS"
        assert session.selection == "t-orders"
        assert session.events.count("preview_shown") == 1

    def test_select_unknown_artifact(self, tiny_app):
        with pytest.raises(UnknownEntityError):
            tiny_app.session("u-ann").select_artifact("ghost")

    def test_explore_requires_selection(self, tiny_app):
        with pytest.raises(ConfigurationError):
            tiny_app.session("u-ann").explore_selection()

    def test_explore_selection(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.select_artifact("t-orders")
        surfaced = session.explore_selection()
        assert surfaced
        assert session.events.count("exploration_shown") == 1


class TestSessionRolesAndConfig:
    def test_config_requires_admin_role(self, tiny_app):
        session = tiny_app.session("u-ann")
        with pytest.raises(ConfigurationError, match="team_admin"):
            session.open_team_config()

    def test_switch_role_validates(self, tiny_app):
        session = tiny_app.session("u-ann")
        with pytest.raises(ConfigurationError):
            session.switch_role("superuser")

    def test_admin_configures_home_page(self, tiny_app):
        session = tiny_app.session("u-ann")  # admin of t-1
        session.switch_role("team_admin")
        session.open_team_config()
        session.configure_team_home_page(["recents", "badges"])
        page = tiny_app.home_pages.home_page("t-1", user_id="u-ann")
        assert page.provider_names() == ["recents", "badges"]
        assert session.events.count("home_page_configured") == 1

    def test_configured_home_used_on_open(self, tiny_app):
        admin = tiny_app.session("u-ann")
        admin.switch_role("team_admin")
        admin.configure_team_home_page(["badges"])
        fresh = tiny_app.session("u-bob", team_id="t-1")
        tabs = fresh.open_home()
        assert [t.provider_name for t in tabs] == ["badges"]
        assert len(fresh.open_browse()) > 1  # full strip still reachable

    def test_non_admin_cannot_configure_other_team(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.switch_role("team_admin")
        with pytest.raises(ConfigurationError, match="not an admin"):
            session.configure_team_home_page(["recents"], team_id="t-2")

    def test_user_hide_and_reorder(self, tiny_app):
        session = tiny_app.session("u-ann")
        session.hide_provider("newest")
        session.reorder_providers(["most_viewed"])
        tabs = session.open_browse()
        names = [t.provider_name for t in tabs]
        assert "newest" not in names
        assert names[0] == "most_viewed"
