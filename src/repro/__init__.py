"""Reproduction of "Humboldt: Metadata-Driven Extensible Data Discovery"
(Bäuerle, Demiralp, Stonebraker — VLDB 2024 TaDA workshop).

Humboldt generates interactive data-discovery UIs from a declarative
specification of metadata providers.  The quickest way in:

    from repro import WorkbookApp, study_catalog

    app = WorkbookApp(study_catalog())
    session = app.session("user-alex")
    session.open_home()
    result = session.search('type: table owned_by: "Alex" badged: endorsed')

Or, through :class:`Discovery` (the single supported entry point for
single-catalog *and* federated deployments; each member catalog is
served by the same generated ``DiscoveryInterface`` a ``WorkbookApp``
uses):

    with repro.Discovery.open(study_catalog()) as discovery:
        result = discovery.search("badged: endorsed")

**Public API.**  The names in ``__all__`` below are the supported
surface: entry points (``Discovery``, ``WorkbookApp``), the catalog
substrate (``CatalogStore``), federation (``Discovery``,
``CatalogRef``, ``FederatedSearchResult``), the execution layer (``ExecutionEngine``,
``ExecutionPolicy``), query parsing/explaining (``parse_query``,
``explain``) and the spec/provider vocabulary.  Anything imported from
a deeper module is internal and may change without notice — internal
modules carry a "Stability: internal" note in their docstrings, and
``tests/test_public_api.py`` snapshots this surface.

Package layout:

* :mod:`repro.catalog` — the enterprise-catalog substrate;
* :mod:`repro.synth` — deterministic synthetic catalogs and workloads;
* :mod:`repro.metadata` — MinHash/LSH joinability, TF-IDF similarity,
  PCA embeddings;
* :mod:`repro.providers` — the metadata-provider framework and the
  built-in provider suite (Figure 2);
* :mod:`repro.core` — the paper's contribution: spec, ranking, query
  language, view generation, interface construction;
* :mod:`repro.workbook` — the headless host application;
* :mod:`repro.federation` — multi-catalog federation: the
  :class:`Discovery` class over member discovery interfaces;
* :mod:`repro.obs` — observability: request tracing (``Tracer``,
  span-tree rendering, exporters) and the label-aware metrics registry
  every serving layer reports into;
* :mod:`repro.baselines` — hardcoded-UI and keyword-search baselines;
* :mod:`repro.study` — the simulated Section 7 user study.
"""

from repro.catalog import Artifact, ArtifactType, CatalogStore
from repro.core.interface import DiscoveryInterface
from repro.core.query import parse_query
from repro.core.query.nlq import explain
from repro.federation import (
    CatalogRef,
    Discovery,
    FederatedSearchResult,
)
from repro.core.spec import (
    HumboldtSpec,
    ProviderSpec,
    RankingWeight,
    SpecBuilder,
    Visibility,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from repro.obs import (
    JsonlExporter,
    MetricsRegistry,
    RingBufferExporter,
    Tracer,
    default_registry,
    render_span_tree,
)
from repro.providers import (
    BuiltinProviders,
    EndpointRegistry,
    ProviderRequest,
    ProviderResult,
    Representation,
    RequestContext,
    install_builtin_endpoints,
)
from repro.providers.execution import ExecutionEngine, ExecutionPolicy
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog, study_catalog
from repro.workbook import Session, WorkbookApp

__version__ = "1.0.0"

__all__ = [
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
