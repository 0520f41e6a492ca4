"""Multi-threaded stress tests for the execution engine and sqlite backend.

Regression coverage for the concurrency fixes that the load harness
(:mod:`repro.load`) flushed out:

* ``_breaker_for`` get-then-create minting two breakers for one endpoint,
  and a ``policy`` swap letting an in-flight fetch resurrect a retired
  breaker's state;
* request-scoped memos (``engine.scope()``) being invisible to
  ``execute_many`` pool workers;
* the lazily-built thread pool racing its own construction, and a policy
  swap leaving a stale-sized pool;
* cross-request single-flight: N concurrent identical fetches, one
  provider invocation;
* ``SqliteBackend`` parallel readers on per-thread connections.

Plus a free-for-all stress run (fetch / invalidate / policy-swap from
many threads) with invariants checked after quiescence, and a hypothesis
interleaving over the sqlite backend with concurrent readers.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.model import Artifact, UsageEvent, User
from repro.catalog.store import CatalogStore
from repro.catalog.usage import UsageLog
from repro.providers.base import (
    ProviderRequest,
    RequestContext,
    ScoredArtifact,
    list_result,
)
from repro.providers.execution import (
    BreakerState,
    ExecutionEngine,
    ExecutionPolicy,
    FetchStatus,
)
from repro.providers.registry import EndpointRegistry
from repro.errors import ProviderError


class CountingEndpoint:
    """Returns a fixed list result; counts invocations thread-safely."""

    def __init__(self, ids=("a-1", "a-2"), latency_s=0.0):
        self._lock = threading.Lock()
        self.calls = 0
        self._ids = tuple(ids)
        self._latency_s = latency_s
        self._sleep = None  # patched in by tests that need real delay

    def __call__(self, request):
        with self._lock:
            self.calls += 1
        if self._latency_s:
            import time

            time.sleep(self._latency_s)
        return list_result([ScoredArtifact(aid) for aid in self._ids])


class FailingEndpoint:
    """Always raises a transient provider error; counts invocations."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, request):
        with self._lock:
            self.calls += 1
        raise ProviderError("x://fail", "boom")


def _engine(endpoints: dict, **kwargs) -> ExecutionEngine:
    registry = EndpointRegistry()
    for uri, endpoint in endpoints.items():
        registry.register(uri, endpoint)
    return ExecutionEngine(registry, **kwargs)


def _hammer(n_threads: int, target) -> list:
    """Run *target(i)* on n threads simultaneously; return results."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def runner(index: int) -> None:
        barrier.wait()
        try:
            results[index] = target(index)
        except Exception as exc:  # pragma: no cover - fail loudly below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


class TestBreakerRaces:
    def test_concurrent_failures_share_one_breaker(self):
        """32 first-failures racing must mint exactly one breaker."""
        endpoint = FailingEndpoint()
        engine = _engine(
            {"x://fail": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, breaker_failure_threshold=1000
            ),
        )

        def fetch(i):
            return engine.execute("x://fail", ProviderRequest(
                context=RequestContext(user_id=f"u-{i}")
            ))

        outcomes = _hammer(32, fetch)
        assert all(o.status is FetchStatus.ERROR for o in outcomes)
        # Internal: the get-then-create in _breaker_for used to mint one
        # breaker per racing thread, each losing the others' trip state.
        assert len(engine._breakers) == 1
        breaker = engine._breakers["x://fail"]
        assert breaker.consecutive_failures == 32

    def test_policy_swap_discards_in_flight_breaker_records(self):
        """A fetch finishing after a policy swap must not resurrect its
        retired breaker (or mint a fresh one carrying stale counts)."""
        release = threading.Event()
        entered = threading.Event()

        def slow_fail(request):
            entered.set()
            release.wait(timeout=5)
            raise ProviderError("x://slow", "boom")

        engine = _engine(
            {"x://slow": slow_fail},
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, breaker_failure_threshold=1
            ),
        )
        worker = threading.Thread(
            target=lambda: engine.execute("x://slow", ProviderRequest())
        )
        worker.start()
        assert entered.wait(timeout=5)
        # Swap mid-flight: retires every breaker.
        engine.policy = engine.policy.replace(breaker_failure_threshold=5)
        release.set()
        worker.join(timeout=5)
        assert not worker.is_alive()
        # The stale record was dropped: no breaker exists (the failure
        # would have tripped threshold=1 had it been double-counted).
        assert "x://slow" not in engine._breakers
        assert engine.breaker_state("x://slow") is BreakerState.CLOSED

    def test_breaker_never_regresses_open_to_closed_without_probe(self):
        """Under concurrent failures + timed probes, every observed
        open → closed transition passes through half-open."""
        endpoint = FailingEndpoint()
        engine = _engine(
            {"x://fail": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                attempts=1,
                breaker_failure_threshold=2,
                breaker_reset_timeout_s=0.02,
                cache_ttl_s=0,
            ),
        )
        transitions: list[str] = []
        seen_lock = threading.Lock()
        original = engine.stats.record_breaker_state

        def spy(uri: str, state: str) -> None:
            with seen_lock:
                transitions.append(state)
            original(uri, state)

        engine.stats.record_breaker_state = spy

        def fetch(i):
            import time

            for _ in range(10):
                engine.execute("x://fail", ProviderRequest())
                time.sleep(0.005)

        _hammer(8, fetch)
        assert "open" in transitions  # the breaker did trip
        for prev, state in zip(transitions, transitions[1:]):
            if prev == "open":
                assert state != "closed", transitions


class TestScopeTravel:
    def test_scope_memo_reaches_execute_many_workers(self):
        """A scope entered on the caller thread must dedupe fetches run
        by pool workers — cache off, so only the memo can explain one call."""
        endpoint = CountingEndpoint()
        other = CountingEndpoint(ids=("b-1",))
        engine = _engine(
            {"x://count": endpoint, "x://other": other},
            policy=ExecutionPolicy.defaults().replace(
                cache_ttl_s=0, max_workers=4
            ),
        )
        request = ProviderRequest()
        with engine.scope():
            engine.execute("x://count", request)
            assert endpoint.calls == 1
            # Two distinct keys force the parallel path; the repeat of
            # x://count must be answered from the travelling scope memo.
            outcomes = engine.execute_many(
                [("x://count", request), ("x://other", request)]
            )
        assert [o.status for o in outcomes] == [FetchStatus.OK] * 2
        assert endpoint.calls == 1
        assert other.calls == 1
        engine.close()

    def test_scope_memo_serves_parallel_query_branches(self):
        """Concurrent branches of one scoped operation share results even
        when both start before either finishes."""
        endpoint = CountingEndpoint(latency_s=0.01)
        engine = _engine(
            {"x://count": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                cache_ttl_s=0, max_workers=4
            ),
        )
        request = ProviderRequest()
        with engine.scope():
            outcomes = engine.execute_many(
                [("x://count", request)] * 4
                + [("x://count", ProviderRequest(
                    context=RequestContext(user_id="u-2")))]
            )
        assert all(o.status is FetchStatus.OK for o in outcomes)
        # 4 identical keys collapse to one invocation (batch dedup +
        # memo), the distinct-context key pays its own.
        assert endpoint.calls == 2
        engine.close()


class TestExecutorPool:
    def test_lazy_pool_construction_is_raced_safely(self):
        """First-callers racing _executor() must all get one pool."""
        engine = _engine(
            {"x://count": CountingEndpoint()},
            policy=ExecutionPolicy.defaults().replace(max_workers=4),
        )
        pools = _hammer(16, lambda i: engine._executor())
        assert len({id(p) for p in pools}) == 1
        engine.close()

    def test_policy_swap_resizes_stale_pool(self):
        engine = _engine(
            {"x://count": CountingEndpoint()},
            policy=ExecutionPolicy.defaults().replace(max_workers=2),
        )
        first = engine._executor()
        assert first._max_workers == 2
        engine.policy = engine.policy.replace(max_workers=6)
        second = engine._executor()
        assert second is not first
        assert second._max_workers == 6
        # The retired pool was shut down, not leaked.
        assert first._shutdown
        engine.close()

    def test_policy_swap_same_width_keeps_pool(self):
        engine = _engine(
            {"x://count": CountingEndpoint()},
            policy=ExecutionPolicy.defaults().replace(max_workers=3),
        )
        first = engine._executor()
        engine.policy = engine.policy.replace(attempts=4)
        assert engine._executor() is first
        engine.close()


class TestSingleFlight:
    def test_identical_in_flight_fetches_share_one_invocation(self):
        endpoint = CountingEndpoint(latency_s=0.03)
        engine = _engine(
            {"x://count": endpoint},
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0),
        )
        request = ProviderRequest(context=RequestContext(user_id="u-hot"))
        outcomes = _hammer(
            12, lambda i: engine.execute("x://count", request)
        )
        assert all(o.status is FetchStatus.OK for o in outcomes)
        assert all(
            o.result.items == outcomes[0].result.items
            for o in outcomes
        )
        assert endpoint.calls == 1
        assert engine.stats.total("single_flights") == 11

    def test_distinct_keys_do_not_coalesce(self):
        endpoint = CountingEndpoint(latency_s=0.01)
        engine = _engine(
            {"x://count": endpoint},
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0),
        )
        _hammer(
            6,
            lambda i: engine.execute(
                "x://count",
                ProviderRequest(context=RequestContext(user_id=f"u-{i}")),
            ),
        )
        assert endpoint.calls == 6
        assert engine.stats.total("single_flights") == 0

    def test_single_flight_disabled_calls_per_fetch(self):
        endpoint = CountingEndpoint(latency_s=0.03)
        engine = _engine(
            {"x://count": endpoint},
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0),
            single_flight=False,
        )
        request = ProviderRequest()
        _hammer(8, lambda i: engine.execute("x://count", request))
        assert endpoint.calls == 8
        assert engine.stats.total("single_flights") == 0

    def test_waiters_get_errors_not_hangs_when_leader_fails(self):
        endpoint = FailingEndpoint()
        engine = _engine(
            {"x://fail": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, breaker_failure_threshold=1000, cache_ttl_s=0
            ),
        )
        request = ProviderRequest()
        outcomes = _hammer(8, lambda i: engine.execute("x://fail", request))
        assert all(o.status is FetchStatus.ERROR for o in outcomes)


def _seeded_store(n: int = 12) -> CatalogStore:
    store = CatalogStore()
    store.add_user(User(id="u-1", name="Stress User"))
    for i in range(n):
        store.add_artifact(Artifact(
            id=f"a-{i}", name=f"ART_{i}",
            artifact_type="table" if i % 2 == 0 else "dashboard",
            owner_id="u-1", tags=("stress",),
        ))
    return store


class TestEngineStress:
    def test_fetch_invalidate_policy_swap_free_for_all(self):
        """8 threads × mixed ops on one engine; afterwards the books
        balance and a quiescent fetch returns current store truth."""
        store = _seeded_store()

        def live_tables(request):
            return list_result(
                [ScoredArtifact(aid) for aid in store.by_type("table")]
            )

        registry = EndpointRegistry()
        registry.register("x://tables", live_tables)
        engine = ExecutionEngine(
            registry,
            store=store,
            policy=ExecutionPolicy.defaults().replace(max_workers=4),
        )
        stop = threading.Event()
        next_id = [100]
        id_lock = threading.Lock()

        def worker(index: int) -> int:
            fetched = 0
            for round_ in range(40):
                action = (index + round_) % 8
                if action < 5:
                    outcome = engine.execute(
                        "x://tables",
                        ProviderRequest(
                            context=RequestContext(user_id=f"u-{index % 3}")
                        ),
                    )
                    assert outcome.status in (
                        FetchStatus.OK, FetchStatus.STALE
                    )
                    fetched += 1
                elif action == 5:
                    with id_lock:
                        new_id = next_id[0]
                        next_id[0] += 1
                    store.add_artifact(Artifact(
                        id=f"a-{new_id}", name=f"ART_{new_id}",
                        artifact_type="table", owner_id="u-1",
                    ))
                elif action == 6:
                    engine.invalidate()
                else:
                    engine.policy = engine.policy.replace(
                        attempts=1 + (round_ % 2)
                    )
            return fetched

        fetch_counts = _hammer(8, worker)
        stop.set()
        # Books balance: every fetch was answered by a hit, a miss (one
        # invocation each, attempts=1..2 but no failures so no retries),
        # or a single-flight join.
        totals = engine.stats.snapshot()["totals"]
        assert totals["errors"] == 0
        assert (
            totals["cache_hits"]
            + totals["cache_misses"]
            + totals["single_flights"]
            == sum(fetch_counts)
        )
        assert totals["cache_misses"] == totals["calls"]
        # Quiescent read returns the live truth — no stale entry survived
        # the concurrent invalidation storm.
        outcome = engine.execute("x://tables", ProviderRequest())
        assert outcome.status is FetchStatus.OK
        assert [a.artifact_id for a in outcome.result.items] == \
            store.by_type("table")
        engine.close()

    def test_tenant_policies_are_isolated_under_contention(self):
        """Tenant overlays set/cleared concurrently never affect other
        tenants' resolved policies."""
        endpoint = CountingEndpoint()
        engine = _engine(
            {"x://count": endpoint},
            policy=ExecutionPolicy.defaults().replace(attempts=1),
        )
        overlay = ExecutionPolicy.defaults().replace(attempts=7)

        def worker(index: int) -> None:
            tenant = f"t-{index % 4}"
            for _ in range(50):
                if index % 2 == 0:
                    engine.set_tenant_policy(tenant, overlay)
                    assert engine.tenant_policy(tenant).retry.attempts == 7
                    engine.clear_tenant_policy(tenant)
                else:
                    # Readers: a foreign tenant's churn never leaks in.
                    assert engine.tenant_policy("t-stable").retry.attempts == 1
                    engine.execute("x://count", ProviderRequest(
                        context=RequestContext(team_id="t-stable")
                    ))

        _hammer(8, worker)
        assert engine.tenant_policy("t-stable").retry.attempts == 1


class TestSqliteConcurrentReaders:
    def test_parallel_readers_while_writing(self, tmp_path):
        """Reader threads on per-thread connections observe consistent
        snapshots while the writer mutates; nobody crashes or blocks."""
        store = CatalogStore.open(tmp_path / "cat.db")
        store.add_user(User(id="u-1", name="Writer"))
        for i in range(10):
            store.add_artifact(Artifact(
                id=f"a-{i}", name=f"T_{i}", artifact_type="table",
                owner_id="u-1",
            ))
        store.flush()
        stop = threading.Event()
        errors: list[Exception] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    ids = store.artifact_ids()
                    assert len(ids) >= 10
                    assert store.by_type("table")
                    store.usage_stats("a-0")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(10, 40):
                store.add_artifact(Artifact(
                    id=f"a-{i}", name=f"T_{i}", artifact_type="table",
                    owner_id="u-1",
                ))
                store.record(f"a-{i % 10}", "u-1", "view")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors, errors
        assert len(store.artifact_ids()) == 40
        store.close()

    def test_read_connections_close_with_store(self, tmp_path):
        """close() from the main thread tears down read connections that
        were created on (now finished) pool threads — sqlite refuses
        cross-thread closes unless the backend opened them for it."""
        store = CatalogStore.open(tmp_path / "cat.db")
        store.add_user(User(id="u-1", name="U"))
        store.add_artifact(Artifact(id="a-1", name="T",
                                    artifact_type="table", owner_id="u-1"))
        store.flush()

        with ThreadPoolExecutor(max_workers=3) as pool:
            for ids in pool.map(
                lambda _: store.artifact_ids(), range(6)
            ):
                assert ids == ["a-1"]
        backend = store._backend
        assert backend._read_conns  # pool threads did open read conns
        store.close()  # must not raise despite foreign-thread conns
        assert not backend._read_conns


# -- hypothesis: sqlite interleavings with concurrent readers -----------------

_write_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 9)),
        st.tuples(st.just("view"), st.integers(0, 9)),
        st.tuples(st.just("badge"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=20,
)


class TestSqliteInterleavingProperty:
    @given(ops=_write_ops)
    @settings(max_examples=10, deadline=None)
    def test_concurrent_reads_match_serial_model(self, ops, tmp_path_factory):
        """Any write interleaving, raced by reader threads, leaves the
        sqlite store observing exactly what an in-memory model observes."""
        tmp_path = tmp_path_factory.mktemp("conc")
        sqlite_store = CatalogStore.open(tmp_path / "cat.db")
        model = CatalogStore()
        for store in (sqlite_store, model):
            store.add_user(User(id="u-1", name="U"))
        stop = threading.Event()
        reader_errors: list[Exception] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    sqlite_store.artifact_ids()
                    sqlite_store.by_badge("endorsed")
            except Exception as exc:  # pragma: no cover
                reader_errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for op in ops:
                kind, n = op
                aid = f"a-{n}"
                if kind == "add":
                    if not sqlite_store.has_artifact(aid):
                        for store in (sqlite_store, model):
                            store.add_artifact(Artifact(
                                id=aid, name=f"T_{n}",
                                artifact_type="table", owner_id="u-1",
                            ))
                elif sqlite_store.has_artifact(aid):
                    for store in (sqlite_store, model):
                        if kind == "view":
                            store.record(aid, "u-1", "view")
                        else:
                            store.grant_badge(aid, "endorsed", "u-1")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not reader_errors, reader_errors
        assert sqlite_store.artifact_ids() == model.artifact_ids()
        assert sqlite_store.by_badge("endorsed") == model.by_badge("endorsed")
        for aid in model.artifact_ids():
            assert (sqlite_store.usage_stats(aid).view_count
                    == model.usage_stats(aid).view_count)
        sqlite_store.close()


class TestStreamingWritersUnderLoad:
    def test_readers_stay_fresh_with_competing_write_streams(self):
        """Writer threads push usage bursts through one shared coalescing
        EventStream and append lineage edges while reader threads fetch
        usage-dependent endpoints through a patch-enabled engine.  No
        thread errors, the books balance, and after quiescing (final
        flush) every engine answer matches a fresh provider fetch."""
        from repro.providers.builtin import (
            BuiltinProviders,
            install_builtin_endpoints,
        )

        store = _seeded_store(n=10)
        for uid in ("u-2", "u-3"):
            store.add_user(User(id=uid, name=f"Writer {uid}"))
        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(store))
        engine = ExecutionEngine(
            registry,
            store=store,
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=3600.0),
        )
        stream = store.stream(window_s=0.0, max_batch=8)
        requests = [
            ProviderRequest(
                inputs={"user": uid}, context=RequestContext(user_id=uid)
            )
            for uid in ("u-1", "u-2", "u-3")
        ]
        edge_seq = [0]
        edge_lock = threading.Lock()

        def worker(index: int) -> int:
            fetched = 0
            uid = f"u-{index % 3 + 1}"
            for round_ in range(60):
                if index % 2 == 0:
                    # Writer: usage burst + the occasional lineage edge.
                    stream.record(f"a-{round_ % 10}", uid, "view")
                    if round_ % 10 == 9:
                        with edge_lock:
                            n = edge_seq[0]
                            edge_seq[0] += 1
                        store.lineage.add_edge(
                            f"a-{n % 10}", f"sink-{n}", "derives"
                        )
                else:
                    outcome = engine.execute(
                        "catalog://recents" if round_ % 2 == 0
                        else "catalog://most_viewed",
                        requests[index % 3],
                    )
                    assert outcome.status in (
                        FetchStatus.OK, FetchStatus.STALE
                    )
                    fetched += 1
            return fetched

        fetch_counts = _hammer(8, worker)
        stream.flush()
        totals = engine.stats.snapshot()["totals"]
        assert totals["errors"] == 0
        assert (
            totals["cache_hits"]
            + totals["cache_misses"]
            + totals["single_flights"]
            == sum(fetch_counts)
        )
        # Quiescent reads equal the live provider truth.
        for request in requests:
            for uri in ("catalog://recents", "catalog://most_viewed"):
                served = engine.execute(uri, request).result
                fresh = registry.resolve(uri)(request)
                assert served.artifact_ids() == fresh.artifact_ids(), uri
        engine.close()


class TestUsageAggregatesUnderOverviews:
    def test_first_events_while_overviews_loop(self):
        """One thread records the first usage event on artifacts nobody
        has touched while another regenerates overviews.  The overview's
        favourites/most-viewed providers and the ranking-field snapshot
        read the per-artifact usage aggregates, and a first event inserts
        a new key into them mid-read; no reader may fail on that."""
        from repro.synth import SynthConfig, generate_catalog
        from repro.workbook.app import WorkbookApp

        store = generate_catalog(
            SynthConfig(seed=5, n_tables=1000, usage_events=3000)
        )
        app = WorkbookApp(store)
        user = store.users()[0].id
        fresh = [
            aid for aid in store.artifact_ids()
            if store.usage_stats(aid).view_count == 0
            and not store.usage_stats(aid).favorited_by
        ]
        assert len(fresh) > 1000
        done = threading.Event()
        failures: list = []
        overviews = [0]

        def writer() -> None:
            try:
                for aid in fresh:
                    store.record(aid, user, "view")
                    time.sleep(0.0005)
            finally:
                done.set()

        def reader() -> None:
            try:
                while not done.is_set():
                    app.interface.overview_tabs(user_id=user)
                    failures.extend(app.interface.last_errors)
                    overviews[0] += 1
            except Exception as exc:  # noqa: BLE001 - the test's verdict
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader),
                       threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            app.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert overviews[0] > 0

    @pytest.mark.parametrize("reader", ["all_stats", "recent_for_user"])
    def test_collection_inside_a_copy_cannot_let_a_writer_in(self, reader):
        """Copying a dict is not atomic on its own: a garbage collection
        triggered inside the copy runs finalizers, and those let other
        threads run.  Here every collection runs one that starts a writer
        recording a first event and waits for it, until one wait times
        out (the writer is held off).  The copy must never see a key
        arrive mid-iteration."""
        log = UsageLog()
        for index in range(2000):
            log.record(UsageEvent(f"a-{index}", "u", "view", 1.0))
        writers: list[threading.Thread] = []
        stop = threading.Event()

        class Finalized:
            def __init__(self) -> None:
                self.cycle = self

            def __del__(self) -> None:
                if stop.is_set() or len(writers) >= 50:
                    return
                event = UsageEvent(f"new-{len(writers)}", "u", "view", 2.0)
                writer = threading.Thread(
                    target=log.record, args=(event,), daemon=True
                )
                writers.append(writer)
                writer.start()
                writer.join(timeout=0.05)
                if writer.is_alive():
                    stop.set()
                else:
                    Finalized()

        gc.collect()
        threshold = gc.get_threshold()
        Finalized()
        gc.set_threshold(1, 10**9, 10**9)  # young collections only
        try:
            if reader == "all_stats":
                log.all_stats()
            else:
                log.recent_for_user("u")
        finally:
            gc.set_threshold(*threshold)
            stop.set()
        for writer in writers:
            writer.join(timeout=10)
        assert not any(writer.is_alive() for writer in writers)
        assert len(writers) > 1
        assert len(log.all_stats()) == 2000 + len(writers)


class TestConcurrentBadgeGrants:
    """``grant_badge`` reads an artifact, adds a badge to a copy and
    writes the copy back.  Unserialised, two threads granting badges to
    one artifact overwrote each other's copies and lost grants."""

    PER_THREAD = 200

    def test_two_threads_keep_every_grant(self, tiny_store):
        failures: list = []

        def grant(prefix: str) -> None:
            try:
                for i in range(self.PER_THREAD):
                    tiny_store.grant_badge("t-orders", f"{prefix}-{i}", "u-ann")
            except Exception as exc:  # noqa: BLE001 - the test's verdict
                failures.append(repr(exc))

        before = len(tiny_store.artifact("t-orders").badges)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grant, args=(prefix,))
                       for prefix in ("left", "right")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        badges = tiny_store.artifact("t-orders").badges
        assert len(badges) == before + 2 * self.PER_THREAD
        for prefix in ("left", "right"):
            assert len(tiny_store.by_badge(f"{prefix}-0")) == 1
