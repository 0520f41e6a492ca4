"""Federated multi-catalog discovery (ROADMAP item 5).

One discovery surface over N member catalogs: catalog-qualified
addressing (:mod:`.refs`), the :class:`~repro.federation.catalog.Discovery`
class whose members are generated discovery interfaces, with
engine-mediated search fan-out, per-member degradation and rank-aware
merging (:mod:`.catalog`), and deterministic partitioning for
conformance testing (:mod:`.partition`).
"""

from repro.federation.catalog import (
    DEFAULT_MEMBER,
    FETCH_LIMIT,
    CrossCatalogEdge,
    Discovery,
    FederatedEdge,
    FederatedEntry,
    FederatedLineage,
    FederatedSearchResult,
    member_search_endpoint_uri,
)
from repro.federation.partition import (
    CatalogPartition,
    federate,
    partition_catalog,
)
from repro.federation.refs import (
    SEPARATOR,
    CatalogRef,
    FederationError,
    UnknownCatalogError,
    parse_ref,
    validate_catalog_id,
)

__all__ = [
    "DEFAULT_MEMBER",
    "FETCH_LIMIT",
    "SEPARATOR",
    "CatalogPartition",
    "CatalogRef",
    "CrossCatalogEdge",
    "Discovery",
    "FederatedEdge",
    "FederatedEntry",
    "FederatedLineage",
    "FederatedSearchResult",
    "FederationError",
    "UnknownCatalogError",
    "federate",
    "member_search_endpoint_uri",
    "parse_ref",
    "partition_catalog",
    "validate_catalog_id",
]
