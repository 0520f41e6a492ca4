"""The catalog store: entities, secondary indexes, usage and lineage.

A :class:`CatalogStore` is the single object metadata providers are handed.
All lookups providers need in their hot paths (by type, owner, badge, tag,
team, name token) are maintained as secondary indexes on write, because the
paper's motivating scale is catalogs of "up to millions" of tables where
linear scans per query are not viable.

The store owns *semantics* — validation, duplicate detection, which
domains a write touches, memoisation — and delegates *state* to a
:class:`~repro.catalog.backend.CatalogBackend`.  ``CatalogStore()`` is the
historical fully-resident store; :meth:`CatalogStore.open` returns one
backed by a persistent SQLite file with per-domain lazy loading, behind
the exact same API and domain-versioning contract.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.catalog.backend import CatalogBackend, InMemoryBackend, grantor_key
from repro.catalog.domains import (
    DOMAIN_ENTITIES,
    DOMAIN_MEMBERSHIP,
    DOMAIN_TEXT,
    DOMAIN_USAGE,
    DOMAINS,
)
from repro.catalog.events import (
    EntitiesEventRecord,
    EventLog,
    EventRecord,
    EventStream,
    LineageEventRecord,
    MembershipEventRecord,
    OpaqueEventRecord,
    UsageEventRecord,
)
from repro.catalog.lineage import LineageGraph
from repro.catalog.model import Artifact, ArtifactType, BadgeAssignment, Team, UsageEvent, User
from repro.catalog.usage import UsageLog, UsageStats
from repro.errors import DuplicateEntityError, UnknownEntityError
from repro.util.clock import SimulationClock
from repro.util.textutil import tokenize

#: Backend state key holding the ``[epoch, now]`` clock snapshot.
_CLOCK_STATE = "clock"
_FINGERPRINT_PREFIX = "fingerprint:"


class CatalogStore:
    """Enterprise catalog with secondary indexes over a pluggable backend."""

    def __init__(self, clock: SimulationClock | None = None,
                 backend: CatalogBackend | None = None):
        self._backend = backend or InMemoryBackend()
        if clock is None:
            clock = self._restore_clock() or SimulationClock()
        self.clock = clock
        # Per-artifact (name tokens, searchable-text tokens) memo for the
        # query evaluator's text scoring; dropped on reindex.
        self._token_cache: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        # Sorted artifact-id list memo, keyed on the entities version —
        # Not-queries materialise the universe per search, and re-sorting
        # a million-id catalog on every keystroke is pure waste.  Between
        # versions the memo is *patched* by replaying entity additions
        # from the write-ahead event log (offset below) instead of
        # refetching every id from the backend.
        self._sorted_ids: list[str] | None = None
        self._sorted_ids_version = -1
        self._sorted_ids_offset = 0
        # The write-ahead event stream: every mutation appends a typed
        # record here *before* bumping its domain version, so engine
        # caches and ranking snapshots can apply per-event deltas (see
        # repro.catalog.events and docs/write_path.md).
        self.events = EventLog()
        #: Version bumps saved by batched event application — a batch of
        #: N usage events bumps once, crediting N-1 here.
        self.coalesced_bumps = 0
        self._coalesce_lock = threading.Lock()
        # Serialises grant_badge's read-modify-write: two concurrent grants
        # on one artifact must not overwrite each other's updated copy.
        self._artifact_write_lock = threading.Lock()
        # Edges added straight through ``store.lineage`` must hit the
        # event log too; the graph exposes a per-edge hook for exactly
        # this (fires after the edge lands, before the version bump).
        self._backend.lineage.on_edge = self._on_lineage_edge

    @classmethod
    def open(cls, path: str | Path,
             clock: SimulationClock | None = None) -> "CatalogStore":
        """Open (or create) a persistent catalog stored at *path*.

        The returned store hydrates lazily per metadata domain: opening a
        200k-artifact catalog reads a few metadata rows, and each domain
        (entities, usage, lineage, token index) loads on first touch.
        Call :meth:`flush` (or :meth:`close`, or use the store as a
        context manager) to persist writes.
        """
        from repro.catalog.sqlite_backend import SqliteBackend

        return cls(clock=clock, backend=SqliteBackend(path))

    def _restore_clock(self) -> SimulationClock | None:
        state = self._backend.get_state(_CLOCK_STATE)
        if state is None:
            return None
        epoch, now = json.loads(state)
        clock = SimulationClock(epoch=epoch)
        if now > epoch:
            clock.advance(seconds=now - epoch)
        return clock

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Persist pending writes (no-op for the in-memory backend)."""
        self._backend.set_state(
            _CLOCK_STATE, json.dumps([self.clock.epoch, self.clock.now()])
        )
        self._backend.flush()

    def compact(self) -> None:
        """Flush, then reclaim backend storage space."""
        self.flush()
        self._backend.compact()

    def close(self) -> None:
        """Flush and release backend resources."""
        self.flush()
        self._backend.close()

    def __enter__(self) -> "CatalogStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def storage_info(self) -> dict:
        """Backend diagnostics (kind, residency/hydration, on-disk size)."""
        return self._backend.info()

    # -- version counters --------------------------------------------------

    @property
    def version(self) -> int:
        """Count of catalog mutations; bumped on every write."""
        return self._backend.version()

    @property
    def domain_versions(self) -> dict[str, int]:
        """Per-domain mutation counters (a copy; see :mod:`.domains`)."""
        return self._backend.domain_versions()

    def domain_version(self, domain: str) -> int:
        """Mutation count of one domain; unknown domains raise KeyError."""
        return self._backend.domain_version(domain)

    def _mutated(self, *domains: str) -> None:
        """Record a write to *domains* (all of them when unspecified —
        the conservative choice for callers that cannot say)."""
        self._backend.bump(domains)

    def _log_event(self, record: EventRecord) -> None:
        """Append one write-ahead record (in-process log + durable
        backend mirror).  Always called after the state change and
        before the version bump — consumers woken by a bump must find
        its explanation already in the log."""
        self.events.append(record)
        self._backend.journal_event(record)

    def _on_lineage_edge(self, src: str, dst: str, kind: str) -> None:
        self._log_event(LineageEventRecord(src=src, dst=dst, kind=kind))

    def restore_domain_versions(self, versions: Mapping[str, int],
                                total: int | None = None) -> None:
        """Merge persisted version counters in, never moving backwards.

        Persistence layers call this after a rebuild so engine caches
        keyed on ``domain_version(...)`` can never collide with keys
        minted against the catalog before it was saved.
        """
        # A restore moves counters without per-event deltas; opaque
        # records force log consumers onto their coarse fallback paths.
        for domain in DOMAINS:
            if domain in versions:
                self._log_event(OpaqueEventRecord(domain, reason="restore"))
        self._backend.restore_versions(versions, total)

    # -- sizes ------------------------------------------------------------

    def __len__(self) -> int:
        return self._backend.artifact_count()

    @property
    def artifact_count(self) -> int:
        return self._backend.artifact_count()

    @property
    def user_count(self) -> int:
        return self._backend.user_count()

    @property
    def team_count(self) -> int:
        return self._backend.team_count()

    # -- usage and lineage -------------------------------------------------

    @property
    def usage(self) -> UsageLog:
        """The usage-event log (lazy backends hydrate it on first touch)."""
        return self._backend.usage

    @property
    def lineage(self) -> LineageGraph:
        """The lineage graph; direct ``lineage.add_edge`` calls version
        correctly because the backend wires the graph's mutation hook."""
        return self._backend.lineage

    # -- users and teams ---------------------------------------------------

    def add_user(self, user: User) -> User:
        if self._backend.get_user(user.id) is not None:
            raise DuplicateEntityError("user", user.id)
        self._backend.put_user(user)
        self._log_event(MembershipEventRecord("user", user.id, added=True))
        self._mutated(DOMAIN_MEMBERSHIP)
        return user

    def add_team(self, team: Team) -> Team:
        if self._backend.get_team(team.id) is not None:
            raise DuplicateEntityError("team", team.id)
        self._backend.put_team(team)
        self._log_event(MembershipEventRecord("team", team.id, added=True))
        self._mutated(DOMAIN_MEMBERSHIP)
        return team

    def set_team(self, team: Team) -> Team:
        """Replace an existing team (e.g. to update its roster/admins)."""
        if self._backend.get_team(team.id) is None:
            raise UnknownEntityError("team", team.id)
        self._backend.put_team(team)
        # Replacement may *remove* members — flagged non-monotonic.
        self._log_event(MembershipEventRecord("team", team.id, added=False))
        self._mutated(DOMAIN_MEMBERSHIP)
        return team

    def user(self, user_id: str) -> User:
        user = self._backend.get_user(user_id)
        if user is None:
            raise UnknownEntityError("user", user_id)
        return user

    def team(self, team_id: str) -> Team:
        team = self._backend.get_team(team_id)
        if team is None:
            raise UnknownEntityError("team", team_id)
        return team

    def users(self) -> list[User]:
        return [self.user(uid) for uid in self._backend.user_ids()]

    def teams(self) -> list[Team]:
        return [self.team(tid) for tid in self._backend.team_ids()]

    def find_user_by_name(self, name: str) -> User | None:
        """Resolve a display name (case-insensitive) to a user, if unique.

        Display names are not unique: when two or more users share the
        name the lookup is ambiguous and returns ``None`` rather than an
        arbitrary (historically: last-added) user.
        """
        user_ids = self._backend.user_ids_by_name(name.lower())
        if len(user_ids) != 1:
            return None
        (user_id,) = user_ids
        return self._backend.get_user(user_id)

    def teams_of(self, user_id: str) -> list[Team]:
        """Teams the user belongs to.

        Membership is recorded on both sides (Team rosters and
        ``User.team_ids``); either side suffices, so late-added users with
        only ``team_ids`` still resolve.
        """
        user = self.user(user_id)
        return [
            t
            for t in self.teams()
            if t.is_member(user_id) or t.id in user.team_ids
        ]

    # -- artifacts ----------------------------------------------------------

    def add_artifact(self, artifact: Artifact) -> Artifact:
        if self._backend.has_artifact(artifact.id):
            raise DuplicateEntityError("artifact", artifact.id)
        self._token_cache.pop(artifact.id, None)
        self._backend.put_artifact(artifact)
        self._log_event(EntitiesEventRecord(artifact.id, added=True))
        self._mutated(DOMAIN_ENTITIES, DOMAIN_TEXT)
        return artifact

    def artifact(self, artifact_id: str) -> Artifact:
        artifact = self._backend.get_artifact(artifact_id)
        if artifact is None:
            raise UnknownEntityError("artifact", artifact_id)
        return artifact

    def has_artifact(self, artifact_id: str) -> bool:
        return self._backend.has_artifact(artifact_id)

    def artifacts(self) -> Iterator[Artifact]:
        """All artifacts in id order (deterministic).

        A full scan by definition, so lazy backends bulk-hydrate the
        entities domain instead of paying one point read per artifact.
        """
        self._backend.hydrate((DOMAIN_ENTITIES,))
        for artifact_id in self.artifact_ids():
            yield self.artifact(artifact_id)

    def artifact_ids(self) -> list[str]:
        """All artifact ids, sorted; the sort is memoised per entities
        version (callers receive a copy they may mutate freely).

        Between versions the memo is maintained *incrementally*: entity
        additions replay from the write-ahead event log at the memoised
        offset as O(log n) sorted inserts, so a streaming catalog never
        pays a full backend refetch per write.  Opaque records and log
        truncation fall back to the refetch.
        """
        version = self._backend.domain_version(DOMAIN_ENTITIES)
        if self._sorted_ids is not None and self._sorted_ids_version != version:
            patched = self._patch_sorted_ids()
            if patched is not None:
                self._sorted_ids = patched
                self._sorted_ids_version = version
        if self._sorted_ids is None or self._sorted_ids_version != version:
            # Offset first: events landing mid-fetch simply replay later,
            # and replaying an addition already in the list is a no-op.
            offset = self.events.offset
            self._sorted_ids = self._backend.artifact_ids()
            self._sorted_ids_version = version
            self._sorted_ids_offset = offset
        return list(self._sorted_ids)

    def _patch_sorted_ids(self) -> list[str] | None:
        """Replay entity additions since the memoised offset into a new
        sorted list; ``None`` means the log cannot explain the version
        change (truncated, or an opaque entities write) and the caller
        must refetch."""
        base = self._sorted_ids
        records, next_offset, truncated = self.events.since(
            self._sorted_ids_offset
        )
        if truncated or base is None:
            return None
        patched: list[str] | None = None
        for record in records:
            if isinstance(record, EntitiesEventRecord):
                if not record.added:
                    continue  # in-place edit: the id set is unchanged
                ids = patched if patched is not None else base
                pos = bisect_left(ids, record.artifact_id)
                if pos < len(ids) and ids[pos] == record.artifact_id:
                    continue  # replayed twice; insert is idempotent
                if patched is None:
                    patched = list(base)
                patched.insert(pos, record.artifact_id)
            elif (
                isinstance(record, OpaqueEventRecord)
                and record.domain == DOMAIN_ENTITIES
            ):
                return None
        self._sorted_ids_offset = next_offset
        return patched if patched is not None else base

    def resolve(self, artifact_ids: Iterable[str]) -> list[Artifact]:
        """Map ids to artifacts, skipping ids that no longer exist."""
        resolved = (self._backend.get_artifact(aid) for aid in artifact_ids)
        return [artifact for artifact in resolved if artifact is not None]

    # -- index lookups -------------------------------------------------------

    def by_type(self, artifact_type: ArtifactType | str) -> list[str]:
        coerced = ArtifactType.coerce(artifact_type)
        return sorted(self._backend.index_ids("type", coerced.value))

    def by_owner(self, user_id: str) -> list[str]:
        return sorted(self._backend.index_ids("owner", user_id))

    def by_badge(self, badge: str, granted_by: str | None = None) -> list[str]:
        if granted_by is None:
            return sorted(self._backend.index_ids("badge", badge))
        return sorted(
            self._backend.index_ids("badge_grantor",
                                    grantor_key(badge, granted_by))
        )

    def by_tag(self, tag: str) -> list[str]:
        return sorted(self._backend.index_ids("tag", tag.lower()))

    def by_team(self, team_id: str) -> list[str]:
        return sorted(self._backend.index_ids("team", team_id))

    def by_token(self, token: str) -> list[str]:
        """Artifacts whose searchable text contains *token*."""
        return sorted(self._backend.index_ids("token", token.lower()))

    def index_size(self, kind: str, key: str) -> int:
        """Bucket size of one secondary index, without materialising it.

        The query planner's cardinality estimates live on this: a
        ``by_*`` accessor sorts its bucket (O(k log k)) where planning
        only needs ``len`` — O(1) resident, one indexed COUNT on lazy
        backends (no hydration either way).  *kind* is one of ``type``,
        ``owner``, ``badge``, ``tag``, ``team``, ``token``; unknown kinds
        and unindexed keys are size 0.
        """
        if kind == "type":
            try:
                key = ArtifactType.coerce(key).value
            except ValueError:
                return 0
        elif kind in ("tag", "token"):
            key = key.lower()
        elif kind not in ("owner", "badge", "team"):
            return 0
        return self._backend.index_size(kind, key)

    def badges_in_use(self) -> list[str]:
        """Badge names that appear on at least one artifact."""
        return self._backend.index_keys("badge")

    def tags_in_use(self) -> list[str]:
        return self._backend.index_keys("tag")

    def artifact_tokens(self, artifact_id: str) -> tuple[frozenset[str], frozenset[str]]:
        """``(name tokens, searchable-text tokens)`` for one artifact.

        Tokenizing every result artifact per query dominated text scoring
        at scale; the sets are immutable per artifact revision, so they
        are memoised here and dropped when the artifact is reindexed.
        """
        cached = self._token_cache.get(artifact_id)
        if cached is None:
            artifact = self.artifact(artifact_id)
            cached = (
                frozenset(tokenize(artifact.name)),
                frozenset(tokenize(artifact.searchable_text())),
            )
            self._token_cache[artifact_id] = cached
        return cached

    def clear_token_cache(self) -> None:
        """Drop all memoised token sets.

        Counts as a ``text``-domain write: cached results that embedded
        the memoised token sets must not survive the clear, so the
        version bump tells dependency-aware engine caches to drop them.
        """
        self._token_cache.clear()
        self._log_event(OpaqueEventRecord(DOMAIN_TEXT, reason="reindex"))
        self._mutated(DOMAIN_TEXT)

    def search_tokens(self, tokens: Iterable[str]) -> list[str]:
        """Artifact ids matching *all* tokens (conjunctive keyword search)."""
        normalized = [token.lower() for token in tokens]
        if not normalized:
            return []
        return self._backend.intersect_tokens(normalized)

    # -- mutation of artifact metadata ----------------------------------------

    def grant_badge(
        self, artifact_id: str, badge: str, granted_by: str, at: float | None = None
    ) -> Artifact:
        """Attach a badge to an artifact, reindexing it."""
        with self._artifact_write_lock:
            artifact = self.artifact(artifact_id)
            self.user(granted_by)  # validate grantor exists
            assignment = BadgeAssignment(
                badge=badge,
                granted_by=granted_by,
                granted_at=self.clock.now() if at is None else at,
            )
            updated = artifact.with_badge(assignment)
            self._token_cache.pop(artifact_id, None)
            self._backend.put_artifact(updated)
        # A badge edits an existing artifact in place: non-monotonic
        # for anything caching artifact payloads, hence added=False.
        self._log_event(EntitiesEventRecord(artifact_id, added=False))
        self._mutated(DOMAIN_ENTITIES, DOMAIN_TEXT)
        return updated

    def record_event(self, event: UsageEvent) -> None:
        """Record a usage event; the artifact and user must exist."""
        self.artifact(event.artifact_id)
        self.user(event.user_id)
        self.usage.record(event)
        self._log_event(UsageEventRecord(event=event))
        self._mutated(DOMAIN_USAGE)

    def record_events(self, events: Sequence[UsageEvent]) -> None:
        """Apply a batch of usage events with **one** usage version bump.

        This is the coalescing primitive under :class:`EventStream`:
        every event is validated, folded and logged individually, but
        the domain version moves once for the whole batch — dependent
        caches sweep once instead of N times.  The bumps saved are
        credited to :attr:`coalesced_bumps`.
        """
        batch = list(events)
        if not batch:
            return
        for event in batch:
            self.artifact(event.artifact_id)
            self.user(event.user_id)
        self.usage.record_many(batch)
        for event in batch:
            self._log_event(UsageEventRecord(event=event))
        with self._coalesce_lock:
            self.coalesced_bumps += len(batch) - 1
        self._mutated(DOMAIN_USAGE)

    def record(
        self, artifact_id: str, user_id: str, action: str, at: float | None = None
    ) -> None:
        """Convenience wrapper building a :class:`UsageEvent` at clock time."""
        timestamp = self.clock.now() if at is None else at
        self.record_event(UsageEvent(artifact_id, user_id, action, timestamp))

    def stream(
        self, window_s: float = 0.05, max_batch: int = 256
    ) -> EventStream:
        """A coalescing usage-event writer bound to this store (see
        :class:`repro.catalog.events.EventStream`)."""
        return EventStream(self, window_s=window_s, max_batch=max_batch)

    def usage_stats(self, artifact_id: str) -> UsageStats:
        return self.usage.stats(artifact_id)

    # -- ingestion fingerprints -------------------------------------------

    def ingest_fingerprint(self, source: str) -> str | None:
        """Content fingerprint recorded for *source* (None if never run)."""
        return self._backend.get_state(_FINGERPRINT_PREFIX + source)

    def set_ingest_fingerprint(self, source: str, fingerprint: str) -> None:
        """Record that *source* was ingested at *fingerprint*."""
        self._backend.set_state(_FINGERPRINT_PREFIX + source, fingerprint)

    def ingest_fingerprints(self) -> dict[str, str]:
        """All recorded ``source -> fingerprint`` pairs."""
        prefix = _FINGERPRINT_PREFIX
        return {
            key[len(prefix):]: self._backend.get_state(key) or ""
            for key in self._backend.state_keys(prefix)
        }

    # -- bulk helpers ----------------------------------------------------------

    def filter_artifacts(self, predicate: Callable[[Artifact], bool]) -> list[Artifact]:
        """Linear filter; prefer index lookups in hot paths."""
        return [a for a in self.artifacts() if predicate(a)]
