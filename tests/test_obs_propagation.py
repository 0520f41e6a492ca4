"""Trace propagation across the serving stack's thread boundaries.

The observability subsystem's hard cases are where a request hops
threads: ``execute_many`` hands work to engine pool workers, a
single-flight waiter shares another request's fetch, and a federated
search fans out through member engines running their own evaluators.
These tests pin that every such hop lands in the caller's trace — and
that the degraded arms (deadline expiry, open breaker) annotate their
spans rather than dropping them.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import RingBufferExporter, Tracer, render_span_tree
from repro.providers.base import (
    ProviderRequest,
    ScoredArtifact,
    list_result,
)
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    FetchStatus,
)
from repro.providers.faults import FailNTimesEndpoint
from repro.providers.registry import EndpointRegistry
from repro.synth import SynthConfig, generate_catalog


class CountingEndpoint:
    def __init__(self, ids=("a-1",)):
        self.calls = 0
        self._ids = tuple(ids)

    def __call__(self, request):
        self.calls += 1
        return list_result([ScoredArtifact(aid) for aid in self._ids])


class BlockingEndpoint:
    """Blocks inside the provider until released; lets a test hold a
    fetch in flight while a second request joins it."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(timeout=5.0)
        return list_result([ScoredArtifact("a-1")])


def traced_engine(registry, **kwargs):
    engine = ExecutionEngine(registry, **kwargs)
    ring = RingBufferExporter()
    engine.enable_tracing(ring)
    return engine, ring


def by_name(ring):
    spans = {}
    for span in ring.spans():
        spans.setdefault(span.name, []).append(span)
    return spans


class TestPoolWorkerPropagation:
    def test_execute_many_fetches_parent_under_the_batch_span(self):
        registry = EndpointRegistry()
        for i in range(4):
            registry.register(f"x://p{i}", CountingEndpoint())
        engine, ring = traced_engine(
            registry,
            policy=ExecutionPolicy.defaults().replace(max_workers=4),
        )
        calls = [(f"x://p{i}", ProviderRequest()) for i in range(4)]
        outcomes = engine.execute_many(calls)
        assert all(o.status is FetchStatus.OK for o in outcomes)

        spans = by_name(ring)
        (batch,) = spans["engine.execute_many"]
        fetches = spans["engine.fetch"]
        assert len(fetches) == 4
        # Pool workers adopted the caller's context: every fetch span —
        # though finished on a different thread — is in the batch's
        # trace, parented directly under the batch span.
        for fetch in fetches:
            assert fetch.trace_id == batch.trace_id
            assert fetch.parent_id == batch.span_id
            assert fetch.attrs["outcome"] == "ok"
        invokes = spans["provider.invoke"]
        assert {s.parent_id for s in invokes} == {
            f.span_id for f in fetches
        }
        assert batch.attrs["ran"] == 4
        engine.close()

    def test_batch_nests_under_an_ambient_caller_span(self):
        registry = EndpointRegistry()
        registry.register("x://p", CountingEndpoint())
        engine, ring = traced_engine(registry)
        with engine.tracer.span("request") as req:
            engine.execute_many([("x://p", ProviderRequest())])
        spans = by_name(ring)
        (batch,) = spans["engine.execute_many"]
        assert batch.parent_id == req.span_id
        assert batch.trace_id == req.trace_id
        engine.close()


class TestSingleFlightLinks:
    def test_waiter_span_links_to_leader_fetch_span(self):
        registry = EndpointRegistry()
        endpoint = BlockingEndpoint()
        registry.register("x://slow", endpoint)
        engine, ring = traced_engine(registry)
        outcomes = {}

        def leader():
            outcomes["leader"] = engine.execute("x://slow", ProviderRequest())

        def waiter():
            outcomes["waiter"] = engine.execute("x://slow", ProviderRequest())

        lead_thread = threading.Thread(target=leader)
        lead_thread.start()
        assert endpoint.entered.wait(timeout=5.0)
        wait_thread = threading.Thread(target=waiter)
        wait_thread.start()
        # Give the waiter time to register on the in-flight fetch, then
        # let the provider return.
        deadline = threading.Event()
        deadline.wait(0.2)
        endpoint.release.set()
        lead_thread.join(timeout=5.0)
        wait_thread.join(timeout=5.0)

        assert endpoint.calls == 1
        assert outcomes["leader"].status is FetchStatus.OK
        assert outcomes["waiter"].status is FetchStatus.OK
        assert engine.stats.total("single_flights") == 1

        spans = by_name(ring)
        (join,) = spans["engine.join"]
        leads = [
            s for s in spans["engine.fetch"]
            if s.attrs.get("endpoint") == "x://slow"
        ]
        (lead_fetch,) = leads
        # The waiter is in its own trace (it belongs to another request)
        # but links to the leader's fetch span — the invocation that
        # actually did its work.
        assert join.links == (lead_fetch.span_id,)
        assert join.trace_id != lead_fetch.trace_id
        assert join.attrs["outcome"] == "ok"
        assert f"~> {lead_fetch.span_id}" in render_span_tree(ring.spans())
        engine.close()


class TestDegradedArms:
    def test_deadline_expiry_annotates_skip(self):
        fake = [0.0]
        registry = EndpointRegistry()
        endpoint = CountingEndpoint()
        registry.register("x://p", endpoint)
        engine, ring = traced_engine(registry, timer=lambda: fake[0])
        deadline = engine.deadline(10.0)
        fake[0] = 1.0  # 1 s later: the 10 ms budget is long spent
        outcome = engine.execute("x://p", ProviderRequest(), deadline=deadline)
        assert outcome.status is FetchStatus.SKIPPED
        assert endpoint.calls == 0
        (fetch,) = by_name(ring)["engine.fetch"]
        assert fetch.attrs["gate"] == "deadline"
        assert fetch.attrs["outcome"] == "skipped"
        # Simulated clock: no time passed inside the span.
        assert fetch.duration_ms == 0.0
        engine.close()

    def test_deadline_expiry_with_stale_fallback_annotates_stale(self):
        fake = [0.0]
        registry = EndpointRegistry()
        registry.register("x://p", CountingEndpoint())
        engine, ring = traced_engine(
            registry,
            timer=lambda: fake[0],
            policy=ExecutionPolicy.defaults().replace(
                cache_ttl_s=10.0, stale_grace_s=900.0
            ),
        )
        assert engine.execute("x://p", ProviderRequest()).status is FetchStatus.OK
        fake[0] = 20.0  # entry expired, within stale grace
        deadline = engine.deadline(10.0)
        fake[0] = 21.0  # budget spent
        outcome = engine.execute("x://p", ProviderRequest(), deadline=deadline)
        assert outcome.status is FetchStatus.STALE
        stale_fetches = [
            s for s in by_name(ring)["engine.fetch"]
            if s.attrs.get("gate") == "deadline"
        ]
        (fetch,) = stale_fetches
        assert fetch.attrs["outcome"] == "stale"
        engine.close()

    def test_breaker_open_annotates_gate(self):
        registry = EndpointRegistry()
        endpoint = FailNTimesEndpoint(CountingEndpoint(), fail_count=10)
        registry.register("x://flaky", endpoint)
        engine, ring = traced_engine(
            registry,
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, cache_ttl_s=0.0,
                breaker_failure_threshold=1,
                breaker_reset_timeout_s=600.0,
            ),
        )
        first = engine.execute("x://flaky", ProviderRequest())
        assert first.status is FetchStatus.ERROR
        second = engine.execute("x://flaky", ProviderRequest())
        assert second.status is FetchStatus.SKIPPED

        fetches = by_name(ring)["engine.fetch"]
        assert len(fetches) == 2
        error_span, gated_span = fetches
        assert error_span.attrs["outcome"] == "error"
        assert error_span.attrs["error"] == "ProviderError"
        assert gated_span.attrs["gate"] == "breaker"
        assert gated_span.attrs["outcome"] == "skipped"
        engine.close()


class TestFederationFanOut:
    @pytest.fixture
    def federation(self):
        from repro.federation.partition import federate

        store = generate_catalog(SynthConfig(seed=7, n_tables=24))
        federation, _ = federate(store, 3)
        yield federation
        federation.close()
        store.close()

    def test_member_spans_join_the_federation_trace(self, federation):
        ring = RingBufferExporter()
        federation.set_tracer(Tracer(exporters=(ring,)))
        result = federation.search("type: table", limit=10)
        assert result.total > 0

        spans = by_name(ring)
        (root,) = spans["federation.search"]
        assert root.parent_id is None
        assert root.attrs["responded"] == 3
        assert root.attrs["failed"] == 0

        member_fetches = [
            s for s in spans["engine.fetch"]
            if s.attrs.get("endpoint", "").startswith("fed://")
        ]
        assert len(member_fetches) == 3
        assert {s.trace_id for s in member_fetches} == {root.trace_id}

        # Member evaluators ran on *their own* engines, yet their search
        # spans are in the federation's trace, nested below the member
        # invocation that triggered them.
        member_searches = spans["query.search"]
        assert len(member_searches) == 3
        assert {s.trace_id for s in member_searches} == {root.trace_id}
        invoke_ids = {s.span_id for s in spans["provider.invoke"]}
        assert all(s.parent_id in invoke_ids for s in member_searches)
        assert len(spans["query.plan"]) == 3

    def test_members_added_after_set_tracer_inherit_it(self, federation):
        tracer = Tracer(exporters=(RingBufferExporter(),))
        federation.set_tracer(tracer)
        extra = generate_catalog(SynthConfig(seed=11, n_tables=6))
        federation.add_member("late", extra)
        member = federation._members["late"]
        assert member.evaluator.engine.tracer is tracer
