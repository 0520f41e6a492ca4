"""Snapshot of the supported public surface.

``repro.__all__`` is the contract embedders program against (see the
package docstring).  This test pins it: adding a name is a conscious
API decision (update the snapshot in the same change), and removing or
renaming one fails loudly here before it breaks anyone downstream.
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro.providers.execution import ExecutionStats

#: The supported surface, sorted.  Grown deliberately, never silently.
PUBLIC_API = [
    "Artifact",
    "ArtifactType",
    "BuiltinProviders",
    "CatalogRef",
    "CatalogStore",
    "Discovery",
    "DiscoveryInterface",
    "EndpointRegistry",
    "ExecutionEngine",
    "ExecutionPolicy",
    "FederatedCatalog",
    "FederatedSearchResult",
    "HumboldtSpec",
    "JsonlExporter",
    "MetricsRegistry",
    "ProviderRequest",
    "ProviderResult",
    "ProviderSpec",
    "RankingWeight",
    "Representation",
    "RequestContext",
    "RingBufferExporter",
    "Session",
    "SpecBuilder",
    "SynthConfig",
    "Tracer",
    "Visibility",
    "WorkbookApp",
    "__version__",
    "default_registry",
    "default_spec",
    "explain",
    "generate_catalog",
    "install_builtin_endpoints",
    "parse_query",
    "render_span_tree",
    "spec_from_json",
    "spec_to_json",
    "study_catalog",
    "validate_spec",
]


class TestPublicSurface:
    def test_all_matches_the_snapshot_exactly(self):
        assert sorted(repro.__all__) == PUBLIC_API

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_no_unexported_public_names_leak(self):
        """Everything importable from ``repro`` that is not a submodule
        or dunder must be a deliberate ``__all__`` export."""
        leaked = [
            name
            for name, value in vars(repro).items()
            if not name.startswith("_")
            and not inspect.ismodule(value)
            and name not in repro.__all__
        ]
        assert leaked == []

    def test_facade_entry_points_are_the_documented_ones(self):
        assert repro.Discovery.open is not None
        assert callable(repro.parse_query)
        assert callable(repro.explain)

    def test_internal_modules_carry_stability_notes(self):
        import repro.catalog.backend
        import repro.catalog.sqlite_backend
        import repro.core.interface.discovery
        import repro.core.query.evaluator
        import repro.core.ranking
        import repro.federation.catalog
        import repro.providers.fields

        for module in (
            repro.catalog.backend,
            repro.catalog.sqlite_backend,
            repro.core.interface.discovery,
            repro.core.query.evaluator,
            repro.core.ranking,
            repro.federation.catalog,
            repro.providers.fields,
        ):
            assert "Stability: internal" in (module.__doc__ or ""), (
                module.__name__
            )


#: The execution engine's public methods and properties, one spelling per
#: operation: fetches go through ``execute``/``execute_many``, counters
#: through ``count``/``total``, configuration through the policy's
#: dataclass fields plus ``replace``/``for_endpoint``.
ENGINE_SURFACE = {
    repro.ExecutionEngine: [
        "breaker_state",
        "cache_size",
        "clear_tenant_policy",
        "close",
        "deadline",
        "declare_dependencies",
        "dependencies_for",
        "enable_tracing",
        "estimate",
        "execute",
        "execute_many",
        "health",
        "invalidate",
        "policy",
        "render_health",
        "scope",
        "set_tenant_policy",
        "tenant_policy",
    ],
    repro.ExecutionPolicy: [
        "defaults",
        "effective",
        "endpoint_overrides",
        "for_endpoint",
        "replace",
    ],
    ExecutionStats: [
        "cache_hit_rate",
        "count",
        "endpoint",
        "record_breaker_state",
        "record_call",
        "record_coalesced_bumps",
        "render",
        "reset",
        "snapshot",
        "total",
    ],
}


def _methods_and_properties(cls) -> list[str]:
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, (property, classmethod)))
    )


class TestEngineSurface:
    """Removed compatibility spellings (``fetch``/``fetch_many``, the
    per-counter ``record_*`` writers and totals properties, the policy's
    read-through properties) must not come back unnoticed."""

    @pytest.mark.parametrize(
        "cls", list(ENGINE_SURFACE), ids=lambda cls: cls.__name__
    )
    def test_public_members_match_the_snapshot(self, cls):
        assert _methods_and_properties(cls) == ENGINE_SURFACE[cls]
