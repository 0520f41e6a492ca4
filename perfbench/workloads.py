"""The four benchmark workloads: catalogs, op streams, oracles.

Every workload is a closed loop: a client issues its next op only after
the previous one returned.  A workload with several clients runs them on
one thread, one op each in turn, so no two ops ever overlap.  Ops are generated from the workload seed
alone (:meth:`Workload.ops`), over choice pools derived from a catalog
that is the same for every seed (``generate_catalog(SynthConfig(seed=7,
n_tables=...))``); users, queries and artifacts are drawn Zipf-hot with
a fixed hotness order, so two seeds differ in which ops are sampled, not
in what is hot.

Each timed op's answer is reduced to a fingerprint after its timer
stops and checked against an oracle computed on a separate deployment:
search ids and order from a ``planning=False`` evaluator, overview tab
sets and explore panels from an independent app, federated ids and order
from the monolith catalog.  ``write_mix`` checks live answers against a
fresh uncached app over the same store at fixed op indices and at the
end, then reopens the sqlite catalog and checks every acknowledged write.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import shutil
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from perfbench.hostspeed import Sample, StepClock, blocked_clock, busy_clock, host_probe
from repro import Discovery, SynthConfig, WorkbookApp, generate_catalog
from repro.catalog.model import ArtifactType
from repro.catalog.store import CatalogStore
from repro.core.query.evaluator import SearchResult
from repro.core.render import text as render_text
from repro.federation.partition import federate
from repro.load.workload import query_pool
from repro.providers.execution import ExecutionPolicy

#: The catalog seed; the workload seed only drives op sampling.
CATALOG_SEED = 7
ZIPF_S = 1.1
#: Hot searches come from the head of ``repro.load.workload.query_pool``.
HOT_QUERIES = 8
SEARCH_LIMIT = 20
EXPLORE_LIMIT = 10
#: Usage events per ``stream`` write (one burst through the event stream).
STREAM_BURST = 8
#: Every n-th write of a ``write_mix`` client commits (stream + store flush).
COMMIT_EVERY = 8
#: ``write_mix`` re-checks each client's last read every n ops.
CHECK_EVERY = 100
#: ``write_mix`` puts its sqlite catalog in a fresh directory under here.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"
#: Write flavours, in proportion (one block).
_WRITE_KINDS = ("stream",) * 4 + ("record",) * 3 + ("lineage",) * 2 + ("badge",)
#: Term kinds of long-tail queries, in proportion (one block).
_TERM_KINDS = ("text",) * 4 + ("type",) * 2 + ("owned_by",) * 2 + ("badged",) + ("tagged",) * 2
#: Long-tail query shapes, in proportion (one block); a negation never
#: applies to every term, so no query is a bare complement.
_QUERY_SHAPES = (
    "{}", "{}",
    "{} & {}", "{} | {}", "{} & !{}", "{} | !{}",
    "({} | {}) & {}", "{} & ({} | {})", "({} | {}) & !{}",
    "{} & ({} | !{})", "({} | !{}) & {}", "{} & (!{} | {})",
)
_QUERY_KEYWORDS = {"and", "or", "not", "by"}


@dataclass(frozen=True)
class Op:
    """One timed action: ``kind`` is search/overview/explore/write.

    ``arg`` is the query (search) or artifact id (explore, write);
    ``detail`` names the write flavour (stream/record/lineage/badge).
    """

    kind: str
    user: str
    arg: str = ""
    detail: str = ""


class Zipf:
    """Zipf-hot draws over a fixed-order population (index 0 hottest).

    Draws are stratified: each block of ``BLOCK`` draws takes one uniform
    from each of ``BLOCK`` equal slices of [0, 1), shuffled, so every
    block hits the Zipf proportions almost exactly and two seeds differ
    in which items are drawn and in what order, not in how often the hot
    ones come up.
    """

    BLOCK = 32

    def __init__(self, population: list, rng: random.Random, s: float = ZIPF_S):
        if not population:
            raise ValueError("empty choice pool")
        self.population = list(population)
        weights = list(itertools.accumulate(
            1.0 / rank ** s for rank in range(1, len(population) + 1)
        ))
        self.cum = [w / weights[-1] for w in weights]
        self.rng = rng
        self.queue: list[int] = []

    def draw(self):
        if not self.queue:
            rng = self.rng
            points = [(k + rng.random()) / self.BLOCK for k in range(self.BLOCK)]
            rng.shuffle(points)
            last = len(self.cum) - 1
            self.queue = [min(bisect.bisect_right(self.cum, u), last) for u in points]
        return self.population[self.queue.pop()]


@dataclass
class Pools:
    """Catalog-derived choice pools, identical for every workload seed."""

    users: list[str]
    teams: dict[str, str]
    hot_queries: list[str]
    artifacts: list[str]  # fixed pseudo-random hotness order
    tokens: list[str]  # name tokens, most frequent first
    types: list[str]
    badges: list[str]
    tags: list[str]
    artifact_count: int

    @classmethod
    def from_store(cls, store: CatalogStore) -> "Pools":
        users = [user.id for user in store.users()]
        teams = {}
        for user in users:
            of = store.teams_of(user)
            teams[user] = of[0].id if of else ""
        ids = store.artifact_ids()
        artifacts = sorted(ids)
        random.Random(CATALOG_SEED).shuffle(artifacts)
        counts: Counter[str] = Counter()
        for aid in ids:
            counts.update(store.artifact_tokens(aid)[0])
        tokens = sorted(
            (t for t in counts if t.isalnum() and len(t) > 2 and t not in _QUERY_KEYWORDS),
            key=lambda t: (-counts[t], t),
        )
        return cls(
            users=users,
            teams=teams,
            hot_queries=query_pool(store)[:HOT_QUERIES],
            artifacts=artifacts,
            tokens=tokens,
            types=[t.value for t in ArtifactType],
            badges=store.badges_in_use(),
            tags=store.tags_in_use(),
            artifact_count=len(ids),
        )


class OpSampler:
    """Seeded draws over :class:`Pools`; one per client stream."""

    def __init__(self, pools: Pools, seed: str):
        self.rng = rng = random.Random(seed)
        self.pools = pools
        self.users = Zipf(pools.users, rng)
        self.hot = Zipf(pools.hot_queries, rng)
        self.artifacts = Zipf(pools.artifacts, rng)
        self.tokens = Zipf(pools.tokens, rng, s=0.8)
        self.tags = Zipf(pools.tags, rng)
        self.term_kinds: list[str] = []
        self.shapes: list[str] = []
        self.write_kinds: list[str] = []
        self.badges: list[str] = []

    def op(self, label: str) -> Op:
        """One op of the mix entry *label*, for a Zipf-drawn user."""
        user = self.users.draw()
        if label == "overview":
            return Op("overview", user)
        if label == "hot_search":
            return Op("search", user, self.hot.draw())
        if label == "long_tail_search":
            return Op("search", user, self.long_tail_query())
        if label == "explore":
            return Op("explore", user, self.artifacts.draw())
        if label == "write":
            detail = self._next(self.write_kinds, _WRITE_KINDS)
            if detail == "badge":
                detail = f"badge:{self._next(self.badges, tuple(self.pools.badges))}"
            return Op("write", user, self.artifacts.draw(), detail)
        raise ValueError(f"unknown mix entry {label!r}")

    def term(self) -> str:
        kind = self._next(self.term_kinds, _TERM_KINDS)
        if kind == "text":
            return f'"{self.tokens.draw()}"'
        if kind == "type":
            return f"type: {self.rng.choice(self.pools.types)}"
        if kind == "owned_by":
            return f"owned_by: {self.users.draw()}"
        if kind == "badged":
            return f"badged: {self.rng.choice(self.pools.badges)}"
        return f"tagged: {self.tags.draw()}"

    def long_tail_query(self) -> str:
        """A compound query over the catalog vocabulary: text tokens,
        field terms, ``&``, ``|``, negation and brackets.  The shape comes
        from a shuffled block with fixed proportions, the terms at random."""
        shape = self._next(self.shapes, _QUERY_SHAPES)
        return shape.format(*(self.term() for _ in range(shape.count("{}"))))

    def _next(self, queue: list, block: tuple) -> str:
        """The next entry of a stratified stream: *block* reshuffled each
        time *queue* runs dry."""
        if not queue:
            queue.extend(block)
            self.rng.shuffle(queue)
        return queue.pop()


@dataclass
class Measurement:
    """What one measured segment of a workload produced."""

    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: (op, answer fingerprint) for every op that returned.
    answers: list[tuple[Op, object]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: On-disk catalog size after the final commit (``write_mix``).
    store_bytes: int = 0
    #: Thread CPU seconds the loop spent between timed ops on
    #: the benchmark's own work (prepare, probe, answer fingerprint).
    overhead_s: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.samples)

    def merge(self, other: "Measurement") -> None:
        self.samples.extend(other.samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.answers.extend(other.answers)
        self.failures.extend(other.failures)
        self.overhead_s += other.overhead_s

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


# -- answer fingerprints (computed after the op's timer stops) ---------------


def search_answer(result: SearchResult) -> tuple:
    return tuple(result.artifact_ids())


def overview_answer(tabs) -> tuple:
    return tuple((tab.provider_name, tuple(tab.view.artifact_ids())) for tab in tabs)


def explore_answer(surfaced) -> tuple:
    return tuple(
        (view.provider_name, view.reason, tuple(view.view.artifact_ids()))
        for view in surfaced
    )


# -- deployments -------------------------------------------------------------


def build_catalog(n_tables: int, store: CatalogStore | None = None) -> CatalogStore:
    return generate_catalog(SynthConfig(seed=CATALOG_SEED, n_tables=n_tables), store=store)


def fresh_app(store: CatalogStore) -> WorkbookApp:
    """An app with caching off over *store*: the freshness oracle."""
    return WorkbookApp(store, policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0))


@dataclass
class AppDeployment:
    app: WorkbookApp
    pools: Pools

    def session(self, user: str):
        return self.app.session(user, self.pools.teams[user])

    def close(self) -> None:
        self.app.close()


def interleaved(streams: list[Iterator[Op]]) -> Iterator[tuple[int, Op]]:
    """The clients' op streams taken in turn, one op each, as
    ``(client, op)`` pairs."""
    for ops in zip(*streams):
        yield from enumerate(ops)


class Workload:
    """Base class: a workload over a :class:`WorkbookApp`."""

    name = ""
    why = ""
    clients = 1
    default_tables = 1000

    #: Whether answers are checked against a static oracle after the run
    #: (``write_mix`` checks its reads live instead).
    static_oracle = True

    def __init__(self, n_tables: int | None = None):
        self.n_tables = n_tables or self.default_tables

    # -- ops ------------------------------------------------------------------

    #: Op kinds per block of ten; each block is shuffled by the seed, so
    #: the mix is exact in every run and only the order and draws vary.
    mix: dict[str, int] = {}

    def ops(self, pools: Pools, seed: int, client: int = 0) -> Iterator[Op]:
        """The client's op stream: infinite, determined by the seed."""
        sampler = OpSampler(pools, f"{self.name}:{seed}:{client}")
        block = [label for label, count in self.mix.items() for _ in range(count)]
        while True:
            sampler.rng.shuffle(block)
            for label in block:
                yield sampler.op(label)

    # -- deployment -------------------------------------------------------------

    def setup(self):
        """Build and warm one deployment; returns it and its set-up clock.

        The clock covers the program's work only (catalog build, app
        open, warm-up), in probe-bracketed steps; deriving the benchmark's
        choice pools is left out.
        """
        clock = StepClock()
        with clock.step():
            app = WorkbookApp(build_catalog(self.n_tables))
        deployment = AppDeployment(app, Pools.from_store(app.store))
        self.warm(deployment, clock)
        return deployment, clock

    def warm(self, deployment, clock: StepClock) -> None:
        """Per-user warm-up: every user's overview and hot searches."""
        for user in deployment.pools.users:
            with clock.step():
                session = deployment.session(user)
                session.open_browse()
                for query in deployment.pools.hot_queries:
                    session.search(query, limit=SEARCH_LIMIT)

    def close(self, deployment) -> None:
        deployment.close()

    def fanout_engines(self, deployment) -> list:
        return []

    def store_bytes(self, deployment) -> int:
        return 0

    # -- timed ops ----------------------------------------------------------------

    def prepare(self, deployment, op: Op, client: int):
        """Untimed per-op context handed to :meth:`execute`."""
        return deployment.session(op.user)

    def execute(self, deployment, context, op: Op):
        """Run one op; everything here is inside the op's timer."""
        if op.kind == "search":
            return context.search(op.arg, limit=SEARCH_LIMIT)
        if op.kind == "overview":
            tabs = context.open_browse()
            render_text.render_tabs_text(tabs)
            return tabs
        if op.kind == "explore":
            context.select_artifact(op.arg)
            return context.explore_selection(limit=EXPLORE_LIMIT)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def answer(self, op: Op, raw) -> object:
        """The op's answer fingerprint (taken after its timer stops)."""
        if op.kind == "search":
            return hash(search_answer(raw))
        if op.kind == "overview":
            return hash(overview_answer(raw))
        if op.kind == "explore":
            return hash(explore_answer(raw))
        return None

    def read(self, deployment, op: Op) -> object:
        """Run a read op untimed and return its fingerprint."""
        return self.answer(op, self.execute(deployment, self.prepare(deployment, op, 0), op))

    def measure(self, deployment, streams, seconds: float, tracer=None,
                checks: bool = True) -> Measurement:
        """Run the closed loop for *seconds* over the clients' streams."""
        return self.closed_loop(deployment, interleaved(streams), seconds, tracer)

    def closed_loop(self, deployment, ops, seconds, tracer, after=None) -> Measurement:
        """Time each ``(client, op)`` of *ops* in turn until *seconds* are up."""
        out = Measurement()
        clock, thread_clock = time.perf_counter, time.thread_time
        started = clock()
        deadline = started + seconds
        now = started
        while now < deadline:
            mark = thread_clock()
            client, op = next(ops)
            context = self.prepare(deployment, op, client)
            probe = host_probe()
            out.attempted += 1
            out.overhead_s += thread_clock() - mark
            blocked, wall = blocked_clock(), clock()
            t0 = busy_clock()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        raw = self.execute(deployment, context, op)
                else:
                    raw = self.execute(deployment, context, op)
            except Exception as exc:  # a failed op is counted, not fatal
                now = clock()
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                out.fail(f"{op}: {type(exc).__name__}: {exc} "
                         f"(in {frame.name}, {Path(frame.filename).name}:{frame.lineno})")
                continue
            busy = busy_clock() - t0
            now = clock()
            blocked = blocked_clock() - blocked
            out.samples.append(Sample(op.kind, busy * 1000.0, probe,
                                      blocked * 1000.0, (now - wall) * 1000.0))
            if self.static_oracle:
                mark = thread_clock()
                out.answers.append((op, self.answer(op, raw)))
                out.overhead_s += thread_clock() - mark
            if after is not None:
                after(client, op, context)
        return out

    # -- oracle -------------------------------------------------------------------

    def oracle(self, spare=None):
        """A deployment for expected answers, separate from the measured
        one: *spare* (a callable making a fresh deployment, e.g. the next
        timed set-up) or a new one.  Search runs with ``planning=False``."""
        deployment = spare() if spare is not None else self.setup()[0]
        deployment.app.interface.evaluator.planning = False
        return deployment

    def finish(self, deployment, measurement: Measurement, spare=None) -> None:
        """Close *deployment*, then compare every recorded answer with
        the oracle's; the oracle never shares memory or caches with the
        measured deployment."""
        self.close(deployment)
        gc.collect()
        oracle = self.oracle(spare)
        try:
            expected: dict[tuple, object] = {}
            for op, got in measurement.answers:
                key = (op.kind, op.user, op.arg)
                if key not in expected:
                    expected[key] = self.read(oracle, op)
                if got != expected[key]:
                    measurement.fail(f"wrong answer: {op}")
        finally:
            oracle.close()


class OverviewWarm(Workload):
    name = "overview_warm"
    why = ("warm overview reopens plus hot searches: every fetch is a cache hit, "
           "so time goes to ranking, views and render after the cache")
    default_tables = 2000

    mix = {"overview": 7, "hot_search": 3}


class ExploreSearchCold(Workload):
    name = "explore_search_cold"
    why = ("selection-driven explore across the catalog plus long-tail compound "
           "queries: keys exceed the cache, so provider invoke and query evaluation dominate")
    default_tables = 1000

    def warm(self, deployment, clock: StepClock) -> None:
        # First-touch lazy index builds (sketches, similarity indexes):
        # explore one artifact of every type, then one search per user.
        store = deployment.app.store
        first_of_type: dict[str, str] = {}
        for aid in sorted(deployment.pools.artifacts):
            first_of_type.setdefault(store.artifact(aid).artifact_type.value, aid)
        session = deployment.session(deployment.pools.users[0])
        for aid in first_of_type.values():
            with clock.step():
                session.select_artifact(aid)
                session.explore_selection(limit=EXPLORE_LIMIT)
        for user in deployment.pools.users:
            with clock.step():
                deployment.session(user).search("type: table", limit=SEARCH_LIMIT)

    mix = {"explore": 5, "long_tail_search": 5}


@dataclass
class FederatedDeployment:
    discovery: Discovery
    pools: Pools

    def search(self, op: Op):
        return self.discovery.search(
            op.arg, user_id=op.user, team_id=self.pools.teams[op.user], limit=SEARCH_LIMIT
        )

    def close(self) -> None:
        self.discovery.close()


@dataclass
class MonolithOracle:
    """The merged catalog a federated answer must reproduce."""

    app: WorkbookApp
    pools: Pools

    def search(self, op: Op):
        return self.app.interface.search(
            op.arg, user_id=op.user, team_id=self.pools.teams[op.user], limit=SEARCH_LIMIT
        )[0]

    def close(self) -> None:
        self.app.close()


class FederatedSearch(Workload):
    name = "federated_search"
    why = ("Discovery.search over a 4-member round-robin federation: the only "
           "path through the Discovery serving stack and federation fan-out/merge")
    default_tables = 1000
    members = 4

    def setup(self):
        clock = StepClock()
        with clock.step():
            store = build_catalog(self.n_tables)
            federation, _ = federate(store, self.members)
            discovery = Discovery.open(federation)
        deployment = FederatedDeployment(discovery, Pools.from_store(store))
        del store  # the members hold their own copies; drop the monolith
        self.warm(deployment, clock)
        return deployment, clock

    def warm(self, deployment, clock: StepClock) -> None:
        for user in deployment.pools.users:
            with clock.step():
                for query in deployment.pools.hot_queries:
                    deployment.search(Op("search", user, query))

    def fanout_engines(self, deployment) -> list:
        return [deployment.discovery.engine]

    mix = {"hot_search": 5, "long_tail_search": 5}

    def prepare(self, deployment, op: Op, client: int):
        return None

    def execute(self, deployment, context, op: Op):
        return deployment.search(op)

    def answer(self, op: Op, raw) -> object:
        if isinstance(raw, SearchResult):  # the monolith oracle
            return hash(search_answer(raw))
        return hash(tuple(raw.bare_ids()))

    def oracle(self, spare=None):
        """The monolith: never a federated set-up, so *spare* is unused."""
        app = WorkbookApp(build_catalog(self.n_tables))
        app.interface.evaluator.planning = False
        return MonolithOracle(app, Pools.from_store(app.store))


# -- write_mix ---------------------------------------------------------------


@dataclass
class WriteCall:
    """Untimed context for one write op."""

    client: "ClientLedger"
    commit: bool
    sink: str = ""


class ClientLedger:
    """One ``write_mix`` client's writes since its last commit.

    A commit acknowledges them: they move to the deployment's
    acknowledged set, which the durability check reads back.
    """

    def __init__(self, index: int):
        self.index = index
        self.writes = 0
        self.pending: list[tuple[str, tuple]] = []
        self.sinks = itertools.count()

    def prepare(self, op: Op) -> WriteCall:
        self.writes += 1
        sink = ""
        if op.detail == "lineage":
            sink = f"perfbench-sink-{self.index}-{next(self.sinks)}"
        return WriteCall(self, self.writes % COMMIT_EVERY == 0, sink)

    def done(self, op: Op, call: WriteCall, deployment: "WriteDeployment") -> None:
        if op.detail == "stream":
            half = STREAM_BURST // 2
            self.pending.append(("usage", (op.arg, STREAM_BURST - half, half)))
        elif op.detail == "record":
            self.pending.append(("usage", (op.arg, 1, 0)))
        elif op.detail == "lineage":
            self.pending.append(("lineage", (op.arg, call.sink, "derives")))
        else:
            self.pending.append(("badge", (op.arg, op.detail.split(":", 1)[1])))
        if call.commit:
            deployment.acknowledge(self)

    def take(self) -> list[tuple[str, tuple]]:
        taken, self.pending = self.pending, []
        return taken


@dataclass
class WriteDeployment:
    app: WorkbookApp
    store: CatalogStore
    path: Path
    stream: object
    pools: Pools
    ledgers: list[ClientLedger]
    baseline_usage: dict[str, tuple[int, int]] = field(default_factory=dict)
    baseline_badges: Counter = field(default_factory=Counter)
    acked: list[tuple[str, tuple]] = field(default_factory=list)
    #: Distinct reads issued, re-checked for freshness at the end.
    reads: set[tuple[str, str, str]] = field(default_factory=set)

    def session(self, user: str):
        return self.app.session(user, self.pools.teams[user])

    def acknowledge(self, ledger: ClientLedger) -> None:
        self.acked.extend(ledger.take())

    def close(self) -> None:
        self.app.close()
        self.store.close()


class WriteMix(Workload):
    name = "write_mix"
    why = ("two clients taking turns, about one write per read, on a sqlite catalog: "
           "the only workload with writes, commits, invalidation and delta patching")
    clients = 2
    default_tables = 1000
    static_oracle = False

    def setup(self):
        SCRATCH.mkdir(exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix="write_mix-", dir=SCRATCH)) / "catalog.db"
        clock = StepClock()
        with clock.step():
            store = build_catalog(self.n_tables, store=CatalogStore.open(path))
            store.flush()
            app = WorkbookApp(store)
        deployment = WriteDeployment(
            app=app, store=store, path=path, stream=store.stream(window_s=0.05),
            pools=Pools.from_store(store),
            ledgers=[ClientLedger(i) for i in range(self.clients)],
        )
        self.warm(deployment, clock)
        for aid in deployment.pools.artifacts:
            stats = store.usage_stats(aid)
            deployment.baseline_usage[aid] = (stats.view_count, stats.open_count)
            for badge in store.artifact(aid).badge_names():
                deployment.baseline_badges[(aid, badge)] += 1
        return deployment, clock

    def close(self, deployment) -> None:
        deployment.close()
        shutil.rmtree(deployment.path.parent, ignore_errors=True)

    mix = {"write": 5, "hot_search": 3, "overview": 2}

    def store_bytes(self, deployment) -> int:
        return sum(
            candidate.stat().st_size
            for candidate in (deployment.path, Path(f"{deployment.path}-wal"))
            if candidate.exists()
        )

    def prepare(self, deployment, op: Op, client: int):
        if op.kind == "write":
            return deployment.ledgers[client].prepare(op)
        return deployment.session(op.user)

    def execute(self, deployment, context, op: Op):
        if op.kind != "write":
            return super().execute(deployment, context, op)
        store = deployment.store
        if op.detail == "stream":
            for index in range(STREAM_BURST):
                deployment.stream.record(op.arg, op.user, "view" if index % 2 == 0 else "open")
        elif op.detail == "record":
            store.record(op.arg, op.user, "view")
        elif op.detail == "lineage":
            store.lineage.add_edge(op.arg, context.sink, "derives")
        else:
            store.grant_badge(op.arg, op.detail.split(":", 1)[1], granted_by=op.user)
        if context.commit:
            deployment.stream.flush()
            store.flush()
        return None

    # -- the two-client loop ------------------------------------------------

    def measure(self, deployment, streams, seconds, tracer=None,
                checks: bool = True) -> Measurement:
        """The clients take turns, one op each, so a write never overlaps
        another op.  With *checks*, every ``CHECK_EVERY`` ops each
        client's last read is re-run on the live app and on a fresh
        uncached app (a mismatch is a stale read)."""
        last_read: dict[int, Op] = {}
        done = itertools.count(1)
        stale: list[Op] = []

        def after(client: int, op: Op, context) -> None:
            if op.kind == "write":
                context.client.done(op, context, deployment)
            else:
                last_read[client] = op
                deployment.reads.add((op.kind, op.user, op.arg))
            if checks and next(done) % CHECK_EVERY == 0:
                stale.extend(self.stale_reads(deployment, list(last_read.values())))

        out = self.closed_loop(deployment, interleaved(streams), seconds, tracer, after)
        for op in stale:
            out.fail(f"stale read at checkpoint: {op}")
        return out

    def stale_reads(self, deployment, ops: list[Op]) -> list[Op]:
        """The reads among *ops* whose live answer differs from that of a
        fresh uncached app over the same store."""
        oracle = AppDeployment(fresh_app(deployment.store), deployment.pools)
        try:
            return [op for op in ops if self.read(deployment, op) != self.read(oracle, op)]
        finally:
            oracle.app.engine.close()

    def finish(self, deployment, measurement: Measurement, spare=None) -> None:
        """Final commit, freshness of every distinct read, durability;
        the oracle is a fresh uncached app over the same store."""
        for ledger in deployment.ledgers:
            deployment.acknowledge(ledger)
        deployment.stream.flush()
        deployment.store.flush()
        measurement.store_bytes = self.store_bytes(deployment)
        reads = [Op(kind, user, arg) for kind, user, arg in sorted(deployment.reads)]
        for op in self.stale_reads(deployment, reads):
            measurement.fail(f"stale read at end: {op}")
        # Counted twice: in the live store (a write lost there never
        # applied) and after reopening (lost there only: the flush).
        in_memory = self.lost_writes(deployment, deployment.store)
        deployment.close()
        with CatalogStore.open(deployment.path) as reopened:
            on_disk = self.lost_writes(deployment, reopened)
        shutil.rmtree(deployment.path.parent, ignore_errors=True)
        if on_disk:
            measurement.fail(
                f"durability: acknowledged writes missing after reopen {dict(on_disk)}, "
                f"of which already missing in memory {dict(in_memory)}",
                sum(on_disk.values()),
            )

    @staticmethod
    def lost_writes(deployment: WriteDeployment, store: CatalogStore) -> Counter:
        """Count, per kind, the acknowledged writes *store* lacks."""
        views: Counter = Counter()
        opens: Counter = Counter()
        badges: Counter = Counter()
        edges = []
        for kind, write in deployment.acked:
            if kind == "usage":
                views[write[0]] += write[1]
                opens[write[0]] += write[2]
            elif kind == "lineage":
                edges.append(write)
            else:
                badges[write] += 1
        lost: Counter = Counter()
        for aid in set(views) | set(opens):
            stats = store.usage_stats(aid)
            base_views, base_opens = deployment.baseline_usage[aid]
            lost["usage"] += max(0, base_views + views[aid] - stats.view_count)
            lost["usage"] += max(0, base_opens + opens[aid] - stats.open_count)
        present = {(e.src, e.dst, e.kind) for e in store.lineage.edges()}
        lost["lineage"] += sum(1 for edge in edges if edge not in present)
        for (aid, badge), grants in badges.items():
            have = store.artifact(aid).badge_names().count(badge)
            lost["badge"] += max(0, deployment.baseline_badges[(aid, badge)] + grants - have)
        return +lost


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (OverviewWarm, ExploreSearchCold, WriteMix, FederatedSearch)
}
