"""Deterministic partitioning of one catalog into disjoint members.

The conformance gate for federation (a federated search over k disjoint
members must equal the same search on the merged monolith, ids *and*
ordering) needs a way to build both sides from one corpus.
:func:`partition_catalog` shards a generated catalog round-robin over
sorted artifact ids: users and teams are replicated into every member
(directory data is reference data, not partitioned data), artifacts and
their usage events land in exactly one member, intra-member lineage
edges go into that member's own graph, and edges whose endpoints land
in different members come back as the federation's cross-catalog edges.

The member stores share the source store's clock, so recency-derived
ranking fields resolve identically on both sides of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.catalog.store import CatalogStore
from repro.core.spec.model import HumboldtSpec
from repro.federation.catalog import Discovery
from repro.federation.refs import CatalogRef, FederationError, validate_catalog_id
from repro.providers.execution import ExecutionPolicy
from repro.util.clock import SimulationClock


@dataclass(frozen=True)
class CatalogPartition:
    """The output of :func:`partition_catalog`."""

    #: Member id -> disjoint member store, registration order preserved.
    members: dict[str, CatalogStore]
    #: Bare artifact id -> owning member id (total over the source).
    assignment: dict[str, str]
    #: Lineage edges split across members: (src_ref, dst_ref, kind).
    cross_edges: tuple[tuple[CatalogRef, CatalogRef, str], ...]

    def owner(self, artifact_id: str) -> str:
        return self.assignment[artifact_id]


def partition_catalog(
    store: CatalogStore,
    parts: "int | Sequence[str]" = 4,
    *,
    prefix: str = "cat",
) -> CatalogPartition:
    """Split *store* into disjoint in-memory member stores.

    *parts* is a member count (names ``cat0..catN-1``) or an explicit
    sequence of member names.  Assignment is round-robin over sorted
    artifact ids — deterministic and balanced.  The source store is not
    modified; it remains the merged monolith the federation can be
    compared against.
    """
    names = (
        [f"{prefix}{index}" for index in range(parts)]
        if isinstance(parts, int)
        else list(parts)
    )
    if len(names) < 1:
        raise FederationError("partition needs at least one member")
    if len(set(names)) != len(names):
        raise FederationError(f"duplicate member names in {names!r}")
    for name in names:
        validate_catalog_id(name)

    members = {name: CatalogStore(clock=store.clock) for name in names}
    ids = store.artifact_ids()
    assignment = {aid: names[index % len(names)] for index, aid in enumerate(ids)}

    users = store.users()
    teams = store.teams()
    for member in members.values():
        for user in users:
            member.add_user(user)
        for team in teams:
            member.add_team(team)
    for artifact_id in ids:
        members[assignment[artifact_id]].add_artifact(store.artifact(artifact_id))
    for event in store.usage.events():
        owner = assignment.get(event.artifact_id)
        if owner is not None:
            members[owner].record_event(event)

    cross: list[tuple[CatalogRef, CatalogRef, str]] = []
    for edge in store.lineage.edges():
        src_owner = assignment.get(edge.src)
        dst_owner = assignment.get(edge.dst)
        if src_owner is None or dst_owner is None:
            continue  # lineage node with no artifact record; unownable
        if src_owner == dst_owner:
            members[src_owner].lineage.add_edge(edge.src, edge.dst, edge.kind)
        else:
            cross.append(
                (
                    CatalogRef(src_owner, edge.src),
                    CatalogRef(dst_owner, edge.dst),
                    edge.kind,
                )
            )
    return CatalogPartition(
        members=members,
        assignment=assignment,
        cross_edges=tuple(cross),
    )


def federate(
    store: CatalogStore,
    parts: "int | Sequence[str]" = 4,
    *,
    prefix: str = "cat",
    spec: HumboldtSpec | None = None,
    policy: ExecutionPolicy | None = None,
    clock: SimulationClock | None = None,
) -> tuple[Discovery, CatalogPartition]:
    """Partition *store* and stand a :class:`Discovery` over it.

    The first member becomes the default; cross-partition lineage edges
    are registered as the federation's cross-catalog edges.  Returns the
    federation plus the partition (for assignment/leakage checks).
    """
    partition = partition_catalog(store, parts, prefix=prefix)
    federation = Discovery(spec=spec, policy=policy, clock=clock)
    for name, member_store in partition.members.items():
        federation.add_member(name, member_store)
    for src, dst, kind in partition.cross_edges:
        federation.add_cross_edge(src, dst, kind=kind)
    return federation, partition


__all__ = ["CatalogPartition", "federate", "partition_catalog"]
