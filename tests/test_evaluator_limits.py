"""Tests pinning evaluator fetch-limit semantics.

The evaluator fetches provider results with a large internal limit so
set operations see complete lists; these tests pin that behaviour and
document what happens when the limit is made artificially small.
"""

import pytest

from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.ranking import Ranker
from repro.providers.builtin import builtin_engine
from repro.providers.execution import ExecutionEngine
from repro.providers.fields import FieldResolver
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog


@pytest.fixture(scope="module")
def big_eval():
    store = generate_catalog(SynthConfig(seed=19, n_tables=120,
                                         usage_events=1000))
    language = QueryLanguage(default_spec())
    evaluator = QueryEvaluator(store, builtin_engine(store), language,
                               Ranker(FieldResolver(store)))
    return store, evaluator


class TestFetchLimit:
    def test_default_limit_sees_all_matches(self, big_eval):
        store, evaluator = big_eval
        result = evaluator.search("type: table", limit=1000)
        assert result.total == len(store.by_type("table"))

    def test_intersection_complete_at_scale(self, big_eval):
        store, evaluator = big_eval
        both = evaluator.search("type: table & tagged: sales", limit=1000)
        expected = set(store.by_type("table")) & set(store.by_tag("sales"))
        assert set(both.artifact_ids()) == expected

    def test_small_fetch_limit_truncates_provider_lists(self, big_eval):
        """Documented trade-off: a small fetch limit caps each provider's
        contribution, so conjunctions may under-report — the reason the
        default is intentionally large."""
        store, evaluator = big_eval
        original = evaluator.fetch_limit
        try:
            evaluator.fetch_limit = 5
            truncated = evaluator.search("type: table", limit=1000)
            assert truncated.total <= 5
        finally:
            evaluator.fetch_limit = original

    def test_display_limit_does_not_affect_total(self, big_eval):
        _, evaluator = big_eval
        result = evaluator.search("type: table", limit=3)
        assert len(result.entries) == 3
        assert result.total > 3


class TestPrefetchIdentity:
    """Prefetch results are keyed by branch position, not ``id(node)``.

    A short-circuiting ``And`` used to leave prefetched entries keyed by
    object ids on the shared eval state; CPython reuses ids, so a later
    node could inherit a dead node's result.  The dict is now local to
    each combination loop and indexed by child position.
    """

    def test_short_circuit_leaves_no_state_residue(self, big_eval):
        from repro.core.query.evaluator import _EvalState
        from repro.providers.base import RequestContext

        _, evaluator = big_eval
        compiled = evaluator.language.compile(
            "tagged: no-such-tag-anywhere & type: table & tagged: sales"
        )
        state = _EvalState()
        with evaluator.engine.scope():
            ids = evaluator._eval(compiled.node, RequestContext(), None, state)
        assert ids == []
        # The state must carry nothing addressable by object identity.
        assert not getattr(state, "prefetched", {})

    def test_prefetched_and_serial_paths_agree(self, big_eval):
        """The parallel-prefetch fast path and a forced-serial walk must
        produce identical membership and order for And/Or queries."""
        store, evaluator = big_eval
        serial = QueryEvaluator(
            store,
            ExecutionEngine(evaluator.registry, store=store),
            evaluator.language,
            evaluator.ranker,
        )
        # Forcing the prefetcher to decline makes every branch evaluate
        # through the serial recursive path.
        serial._prefetch_branches = lambda children, context, state: {}
        for query in (
            "type: table & tagged: sales",
            "tagged: sales | badged: endorsed | type: workbook",
            "type: table & tagged: sales & tagged: crm",
        ):
            fast = evaluator.search(query, limit=1000)
            slow = serial.search(query, limit=1000)
            assert fast.artifact_ids() == slow.artifact_ids(), query
