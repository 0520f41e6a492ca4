"""Deterministic workload generation for the concurrent load harness.

A workload is a list of :class:`SessionScript`\\ s — per-user operation
sequences in the bursty query/explore mix the dataset-search UX study
observed real users issuing.  Generation is fully seeded: the same
:class:`LoadConfig` over the same catalog always yields the same scripts,
so concurrent runs differ only in thread interleaving, never in the work
itself.

Both the query pool and the user assignment are Zipf-skewed.  Skewing
*users* matters as much as skewing queries: provider request keys carry
the requesting user/team, so identical in-flight fetches — the ones
cross-request single-flight batching can coalesce — only occur when hot
users run overlapping sessions, exactly what a popular dashboard's
audience looks like.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate

from repro.catalog.store import CatalogStore
from repro.synth.workload import zipf_weights

#: Op kinds and default weights of the single-catalog deployment, in
#: draw order: search-heavy, with a steady stream of overview opens and
#: selection-driven exploration, a trickle of autocomplete, and enough
#: catalog writes ("touch": one usage event) to keep invalidation honest
#: — a cache that is never invalidated makes every engine look fast.
WORKBOOK_MIX: Mapping[str, float] = {
    "search": 0.45,
    "overview": 0.20,
    "explore": 0.15,
    "suggest": 0.10,
    "touch": 0.10,
}

#: Op kinds and default weights of the federated deployment:
#: cross-catalog searches, qualified-ref artifact resolution and
#: cross-catalog lineage walks.
FEDERATED_MIX: Mapping[str, float] = {
    "search": 0.60,
    "artifact": 0.25,
    "lineage": 0.15,
}

#: Autocomplete prefixes ``suggest`` ops draw from.
SUGGEST_PREFIXES = ("ty", "bad", "tag", "own", "air", "ord")


@dataclass(frozen=True)
class Op:
    """One scripted session action.

    ``arg`` is the query (search), artifact id or qualified ref
    (explore/touch/artifact/lineage) or prefix (suggest); overview opens
    need no argument.
    """

    kind: str
    arg: str = ""


@dataclass(frozen=True)
class SessionScript:
    """One simulated user session: who runs it and what they do."""

    user_id: str
    team_id: str
    ops: tuple[Op, ...]


@dataclass(frozen=True)
class LoadConfig:
    """Knobs for workload generation and the harness that drives it."""

    seed: int = 7
    sessions: int = 64
    ops_per_session: int = 6
    concurrency: int = 8
    #: Zipf exponent for query, user and artifact popularity; higher =
    #: more skew.
    zipf_s: float = 1.1
    #: Member catalogs: 1 drives one shared ``WorkbookApp``; >= 2
    #: partitions the corpus with ``federate`` and drives ``Discovery``.
    parts: int = 1
    #: Op kind -> weight; kinds left out weigh 0.  None takes the
    #: deployment's default, :data:`WORKBOOK_MIX` or :data:`FEDERATED_MIX`.
    mix: Mapping[str, float] | None = None
    #: Fixed latency injected per provider invocation, simulating a
    #: remote metadata service; 0 disables injection (single catalog only).
    provider_latency_ms: float = 0.0
    #: When > 0, the harness traces every session op and the report's
    #: ``slowest`` block holds the N slowest op span trees; 0 keeps the
    #: engine on its zero-allocation no-op tracer.
    trace_slowest: int = 0

    def __post_init__(self) -> None:
        if self.sessions < 1 or self.ops_per_session < 1:
            raise ValueError("sessions and ops_per_session must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be > 0")
        if self.parts < 1:
            raise ValueError("parts must be >= 1")
        if self.trace_slowest < 0:
            raise ValueError("trace_slowest must be >= 0")
        if self.parts > 1 and self.provider_latency_ms:
            raise ValueError(
                "provider_latency_ms needs parts=1: the federation engine "
                "takes no injected latency"
            )
        weights = self.weights()
        unknown = sorted(set(self.mix or ()) - set(weights))
        if unknown:
            raise ValueError(
                f"unknown op kinds {unknown} for parts={self.parts}; "
                f"expected a subset of {list(weights)}"
            )
        if any(w < 0 for w in weights.values()) or sum(weights.values()) <= 0:
            raise ValueError("mix weights must be >= 0 and not all zero")

    def weights(self) -> dict[str, float]:
        """The op mix in draw order (the deployment's kind order)."""
        default = WORKBOOK_MIX if self.parts == 1 else FEDERATED_MIX
        if self.mix is None:
            return dict(default)
        return {kind: self.mix.get(kind, 0.0) for kind in default}


def _zipf_picker(
    items: Sequence[str], s: float
) -> Callable[[random.Random], str]:
    """Draw Zipf-distributed items — the first is the hottest.

    The cumulative weights are built once per pool; ``random.choices``
    over them makes exactly the draws it makes from the plain weights.
    """
    cum_weights = list(accumulate(zipf_weights(len(items), s)))
    return lambda rng: rng.choices(items, cum_weights=cum_weights, k=1)[0]


def query_pool(store: CatalogStore) -> list[str]:
    """The queries sessions draw from, hottest first.

    Derived from the study tasks (T1's endorsed-badge lookup, T3's
    by-owner workbook search) plus the catalog's own vocabulary — badges,
    tags, types and owner names in use — so the pool scales with the
    catalog instead of hard-coding a toy list.
    """
    pool: list[str] = [
        # T1: metadata-based entry point, then the named table itself.
        "badged: endorsed",
        "AIRLINES",
        "type: table",
        # T3: composed by-owner search.
        "type: workbook",
    ]
    users = store.users()
    for user in users[:4]:
        pool.append(f"type: workbook & owned_by: {user.id}")
    for badge in store.badges_in_use()[:4]:
        pool.append(f"badged: {badge}")
        pool.append(f"badged: {badge} & type: table")
    for tag in store.tags_in_use()[:6]:
        pool.append(f"tagged: {tag}")
    pool.extend(["type: dashboard", "type: dataset", "orders", "sales"])
    # Preserve order (hotness rank) while dropping duplicates.
    seen: set[str] = set()
    unique = [q for q in pool if not (q in seen or seen.add(q))]
    return unique


def build_workload(
    store: CatalogStore,
    config: LoadConfig,
    owner: Mapping[str, str] | None = None,
) -> list[SessionScript]:
    """Generate ``config.sessions`` deterministic session scripts.

    *owner* maps artifact id -> member catalog id (a partition's
    ``assignment``); given it, artifact args are qualified
    ``member:artifact`` refs, valid for exactly that federation.
    """
    users = store.users()
    if not users:
        raise ValueError("catalog has no users to simulate")
    artifacts = store.artifact_ids()
    if not artifacts:
        raise ValueError("catalog has no artifacts to explore")
    if owner is not None:
        artifacts = [f"{owner[aid]}:{aid}" for aid in artifacts]
    team_of = {}
    for user in users:
        teams = store.teams_of(user.id)
        team_of[user.id] = teams[0].id if teams else ""
    pick_user = _zipf_picker([user.id for user in users], config.zipf_s)
    pick_query = _zipf_picker(query_pool(store), config.zipf_s)
    pick_artifact = _zipf_picker(artifacts, config.zipf_s)
    mix = config.weights()
    kinds = tuple(mix)
    cum_weights = list(accumulate(mix.values()))

    rng = random.Random(config.seed)
    scripts: list[SessionScript] = []
    for _ in range(config.sessions):
        user = pick_user(rng)
        ops: list[Op] = []
        for _ in range(config.ops_per_session):
            kind = rng.choices(kinds, cum_weights=cum_weights, k=1)[0]
            if kind == "search":
                arg = pick_query(rng)
            elif kind == "overview":
                arg = ""
            elif kind == "suggest":
                arg = rng.choice(SUGGEST_PREFIXES)
            else:
                # Every other kind acts on one Zipf-hot artifact.
                arg = pick_artifact(rng)
            ops.append(Op(kind, arg))
        scripts.append(SessionScript(user, team_of[user], tuple(ops)))
    return scripts
