"""Chaos tests: random fault schedules never corrupt healthy output.

The resilience acceptance bar, as a property: inject an arbitrary mix of
failing providers and (a) the interface still generates, (b) every view
backed by a *healthy* provider is byte-identical to a no-fault run,
(c) every affected section carries an explicit degraded/stale marker —
no silent degradation anywhere.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interface.discovery import DiscoveryInterface
from repro.core.render import render_view_text
from repro.errors import ProviderError
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    FetchStatus,
)
from repro.providers.faults import FailNTimesEndpoint, FlakyEndpoint
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.util.clock import SimulationClock
from repro.workbook.app import WorkbookApp
from tests.conftest import build_tiny_store

_STORE = build_tiny_store()
_SPEC = default_spec()

#: Overview providers needing no selection-derived input — the fan-out a
#: chaos schedule perturbs.  Name -> endpoint, spec order.
_FAULTABLE = {
    provider.name: provider.endpoint
    for provider in _SPEC.providers
    if provider.visibility.overview and not provider.required_inputs()
}

_MODES = ("ok", "fail_always", "fail_first")


def _make_app(faults: dict[str, str]) -> WorkbookApp:
    """A workbook over the shared store with *faults* injected.

    ``faults`` maps endpoint URI -> mode.  Faulted endpoints also get a
    hair-trigger breaker so a single chaos round exercises it.
    """
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, BuiltinProviders(_STORE))
    policy = ExecutionPolicy.defaults()
    for endpoint, mode in faults.items():
        if mode == "ok":
            continue
        original = registry.resolve(endpoint)
        if mode == "fail_always":
            wrapped = FlakyEndpoint(original, fail_on=lambda i: True,
                                    name=endpoint)
        else:
            wrapped = FailNTimesEndpoint(original, fail_count=1,
                                         name=endpoint)
        registry.register(endpoint, wrapped, replace=True)
        policy = policy.for_endpoint(endpoint, breaker_failure_threshold=1)
    return WorkbookApp(_STORE, registry=registry, policy=policy)


def _baseline_tabs() -> dict[str, str]:
    with _make_app({}) as app:
        return {
            tab.provider_name: render_view_text(tab.view)
            for tab in app.interface.overview_tabs(user_id="u-ann")
        }


_BASELINE = _baseline_tabs()

fault_schedules = st.fixed_dictionaries(
    {endpoint: st.sampled_from(_MODES) for endpoint in _FAULTABLE.values()}
)


class TestOverviewChaos:
    @given(faults=fault_schedules)
    @settings(max_examples=20, deadline=None)
    def test_healthy_tabs_byte_identical_and_faults_flagged(self, faults):
        faulty = {
            name for name, endpoint in _FAULTABLE.items()
            if faults[endpoint] != "ok"
        }
        with _make_app(faults) as app:
            tabs = app.interface.overview_tabs(user_id="u-ann")
            by_name = {tab.provider_name: tab for tab in tabs}

            for name, text in _BASELINE.items():
                if name in faulty:
                    # a broken provider loses its tab, never shows junk
                    assert name not in by_name
                else:
                    # healthy providers are untouched by their broken
                    # neighbours: byte-identical rendering
                    assert render_view_text(by_name[name].view) == text

            # every fault is explicitly reported, and only faults are
            marked = {
                marker.provider
                for marker in app.interface.last_health
                if marker.degraded
            }
            assert faulty <= marked
            assert app.interface.degraded == bool(faulty)

            # zero unflagged degradation: nothing cached in a fresh app,
            # so no tab may claim staleness and every surviving tab is
            # a fresh one
            for tab in tabs:
                assert not tab.view.stale
                if tab.provider_name not in faulty:
                    assert not tab.view.degraded


class TestSearchDegradation:
    QUERY = "badged: endorsed | type: table"

    def test_open_breaker_search_returns_healthy_leaves_flagged(self):
        with _make_app({}) as clean:
            expected = {
                entry.artifact_id
                for entry in clean.interface.search(
                    "type: table", user_id="u-ann"
                )[0].entries
            }
        faults = {"catalog://badged": "fail_always"}
        with _make_app(faults) as app:
            # first evaluation hits the live failure: pre-resilience
            # contract, the error surfaces (and trips the breaker)
            with pytest.raises(ProviderError):
                app.interface.search(self.QUERY, user_id="u-ann")
            result, view = app.interface.search(self.QUERY, user_id="u-ann")
            assert result.degraded
            assert any(
                marker.endpoint == "catalog://badged"
                and marker.status == FetchStatus.SKIPPED.value
                for marker in result.health
            )
            # the healthy leaf still answers, correctly and completely
            assert {e.artifact_id for e in result.entries} == expected
            assert view.degraded and not view.stale
            assert "badged" in view.notice

    def test_recovered_endpoint_clears_degradation(self):
        faults = {"catalog://most_viewed": "fail_first"}
        with _make_app(faults) as app:
            app.interface.overview_tabs(user_id="u-ann")
            assert app.interface.degraded
            # breaker opened on the single failure; wait out the reset
            # window, then the half-open probe hits the recovered endpoint
            engine = app.engine
            original_timer = engine._timer
            offset = ExecutionPolicy.defaults().breaker.reset_timeout_s + 1
            engine._timer = lambda: original_timer() + offset
            tabs = app.interface.overview_tabs(user_id="u-ann")
            assert not app.interface.degraded
            assert "most_viewed" in {tab.provider_name for tab in tabs}


class TestStaleSearch:
    def _interface(self):
        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(_STORE))
        original = registry.resolve("catalog://badged")
        flaky = FlakyEndpoint(original, fail_on=lambda i: i > 1,
                              name="badged")
        registry.register("catalog://badged", flaky, replace=True)
        clock = SimulationClock()
        engine = ExecutionEngine(
            registry,
            store=_STORE,
            clock=clock,
            policy=ExecutionPolicy.defaults().for_endpoint(
                "catalog://badged", breaker_failure_threshold=1
            ),
        )
        return DiscoveryInterface(
            store=_STORE, registry=registry, spec=_SPEC, engine=engine
        ), clock

    def test_stale_members_served_and_flagged(self):
        interface, clock = self._interface()
        fresh, _ = interface.search("badged: endorsed")
        assert not fresh.degraded
        fresh_ids = {entry.artifact_id for entry in fresh.entries}

        clock.advance(seconds=ExecutionPolicy.defaults().cache.ttl_s + 1)
        # the revalidation fetch fails live (pre-resilience contract:
        # the error surfaces) and trips the hair-trigger breaker ...
        with pytest.raises(ProviderError):
            interface.search("badged: endorsed")
        # ... so the next search serves the expired entry, marked stale
        result, view = interface.search("badged: endorsed")
        assert result.degraded
        assert {entry.artifact_id for entry in result.entries} == fresh_ids
        assert any(
            marker.status == FetchStatus.STALE.value
            for marker in result.health
        )
        assert view.stale and view.degraded
        assert "STALE" in render_view_text(view)
        assert interface.engine.stats.total("stale_served") >= 1


class TestExplorationDegradation:
    def test_broken_provider_loses_its_panel_with_marker(self):
        with _make_app({}) as clean:
            baseline = {
                surfaced.provider_name
                for surfaced in clean.exploration.explore(
                    "t-orders", user_id="u-ann"
                )
            }
        assert "owned_by" in baseline  # the panel the fault will remove
        faults = {"catalog://owned_by": "fail_always"}
        with _make_app(faults) as app:
            surfaced = app.exploration.explore("t-orders", user_id="u-ann")
            names = {view.provider_name for view in surfaced}
            assert "owned_by" not in names
            assert baseline - {"owned_by"} <= names
            assert any(
                marker.provider == "owned_by" and marker.degraded
                for marker in app.exploration.last_health
            )
