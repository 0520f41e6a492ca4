"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (class
attributes patched for the duration of a traced segment, restored
afterwards) and records one span per call: its layer name, its duration
and the time its child spans covered on the same thread.  Self time is
duration minus child time.  Spans are kept per thread, so work an engine
pool runs on other threads is accounted to those threads and never
subtracted from the caller a second time.  Spans are folded into
per-thread aggregates as they close (calls, total, self), which keeps a
traced run's memory flat however many spans it makes.

Per-item hot calls (``CatalogStore.usage_stats``, ``make_card``) get a
counter instead of a span, so the tracer does not dominate what it
measures; their time stays in the caller's self time.

Provider invocations are timed by an engine middleware passed through
the public ``middlewares=`` argument of :class:`ExecutionEngine`; the
tracer adds it to every engine constructed while :meth:`hook_engines`
is in force, including the ones a federation builds for its members.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter_ns

from repro.catalog.events import EventStream
from repro.catalog.lineage import LineageGraph
from repro.catalog.store import CatalogStore
from repro.core.interface import discovery as discovery_module
from repro.core.interface.discovery import DiscoveryInterface
from repro.core.interface.exploration import ExplorationEngine
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.query.planner import QueryPlanner
from repro.core.ranking import Ranker
from repro.core.render import text as render_text
from repro.core.views import factory as factory_module
from repro.core.views.factory import ViewFactory
from repro.errors import ProviderError
from repro.federation.catalog import FederatedCatalog
from repro.providers.execution import ExecutionEngine

#: Set-returning catalog reads, each recorded as a ``catalog.read`` span.
CATALOG_READS = (
    "artifact_ids", "artifacts", "resolve", "by_type", "by_owner",
    "by_badge", "by_tag", "by_team", "by_token", "search_tokens",
    "index_size", "badges_in_use", "tags_in_use", "users", "teams",
    "teams_of", "find_user_by_name", "filter_artifacts",
)
CATALOG_WRITES = ("record", "record_event", "record_events", "grant_badge", "add_artifact")
RANKING_ENTRY_POINTS = ("top_k", "top_k_items", "rank_items", "rank_ids")
#: Engine spans a ``Future.result`` wait is attributed to.
_ENGINE_SPANS = ("engine", "federation.fanout")
_FEDERATION_PREFIX = "fed://"


class _ThreadState:
    __slots__ = ("stack", "agg", "counts")

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [name, child_ns]
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}


class LayerTracer:
    """Span recorder for the benchmark's traced segments."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Per-call tallies for hot per-item calls (name -> counter).
        self._tallies: dict[str, itertools.count] = {}
        #: True while a traced segment runs; the invoke middleware and
        #: the op root span record only then.
        self.active = False
        #: Every engine constructed under :meth:`hook_engines`.
        self.engines: list[ExecutionEngine] = []
        #: ids of engines whose ``execute_many`` is a federation fan-out.
        self.fanout_engines: set[int] = set()

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, name: str) -> tuple[_ThreadState, list, int]:
        state = self._state()
        frame = [name, 0]
        state.stack.append(frame)
        return state, frame, perf_counter_ns()

    @staticmethod
    def _exit(state: _ThreadState, frame: list, started: int) -> None:
        duration = perf_counter_ns() - started
        state.stack.pop()
        if state.stack:
            state.stack[-1][1] += duration
        entry = state.agg.get(frame[0])
        if entry is None:
            entry = state.agg[frame[0]] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        state, frame, started = self._enter(name)
        try:
            yield
        finally:
            self._exit(state, frame, started)

    def totals(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        """Aggregates merged over every thread: (spans, counters)."""
        spans: dict[str, list[int]] = {}
        counts: dict[str, int] = {}
        with self._lock:
            for state in self._states:
                for name, (calls, total, own) in list(state.agg.items()):
                    entry = spans.setdefault(name, [0, 0, 0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
                for name, value in list(state.counts.items()):
                    counts[name] = counts.get(name, 0) + value
            for name, tally in self._tallies.items():
                # next() returns the number of ticks so far; swap in a
                # fresh counter so a later read starts from zero.
                counts[name] = counts.get(name, 0) + next(tally)
            self._tallies.clear()
        return spans, counts

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, after=None):
        enter, exit_ = self._enter, self._exit
        state_of = self._state

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = state_of().stack
            if stack and stack[-1][0] == label:
                # Re-entrant call inside the same layer (store.record ->
                # record_event): one span for the outermost call.
                return fn(*args, **kwargs)
            state, frame, started = enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(state, frame, started)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        """Count calls without a span: ``next`` on a C-level counter is
        atomic under the interpreter lock and far cheaper than a span."""
        tick = self._tallies.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wait_wrapper(self, fn):
        enter, exit_ = self._enter, self._exit
        state_of = self._state

        def result(future, timeout=None):
            stack = state_of().stack
            if not stack or stack[-1][0] not in _ENGINE_SPANS:
                return fn(future, timeout)
            state, frame, started = enter("engine.wait")
            try:
                return fn(future, timeout)
            finally:
                exit_(state, frame, started)

        result.__wrapped__ = fn
        return result

    def _patch(self, owner: object, attribute: str, wrapper_factory) -> None:
        own = attribute in vars(owner)
        original = getattr(owner, attribute)
        setattr(owner, attribute, wrapper_factory(original))
        self._patches.append((owner, attribute, original, own))

    def middleware(self, endpoint, request, call_next):
        """Engine middleware timing each provider invocation."""
        if not self.active:
            return call_next(endpoint, request)
        member = endpoint.startswith(_FEDERATION_PREFIX)
        state, frame, started = self._enter(
            "federation.member" if member else "provider.invoke"
        )
        try:
            return call_next(endpoint, request)
        except ProviderError:
            if not member:
                self.count("provider.errors")
            raise
        finally:
            self._exit(state, frame, started)

    # -- installation -------------------------------------------------------

    @contextmanager
    def hook_engines(self):
        """Add the invoke middleware to every engine built inside."""
        original = ExecutionEngine.__init__
        tracer = self

        def __init__(engine, registry, *args, **kwargs):
            if len(args) >= 3:  # middlewares passed positionally
                args = (*args[:2], (tracer.middleware, *args[2]), *args[3:])
            else:
                kwargs["middlewares"] = (
                    tracer.middleware, *kwargs.get("middlewares", ())
                )
            original(engine, registry, *args, **kwargs)
            tracer.engines.append(engine)

        ExecutionEngine.__init__ = __init__
        try:
            yield self
        finally:
            ExecutionEngine.__init__ = original

    def install(self) -> None:
        """Patch every layer entry point; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        span = self._span_wrapper
        count_calls = self._count_wrapper
        for attribute in ("overview_tabs", "search", "open_view", "filter_view", "suggest"):
            self._patch(DiscoveryInterface, attribute, lambda fn: span(fn, "interface"))
        for attribute in ("explore", "pivot"):
            self._patch(ExplorationEngine, attribute, lambda fn: span(fn, "interface"))
        self._patch(QueryLanguage, "compile", lambda fn: span(fn, "query.parse"))
        self._patch(QueryPlanner, "plan", lambda fn: span(fn, "query.plan"))
        self._patch(QueryEvaluator, "search", lambda fn: span(fn, "query.eval"))
        fanout = self.fanout_engines

        def engine_layer(args) -> str:
            return "federation.fanout" if id(args[0]) in fanout else "engine"

        for attribute in ("execute", "execute_many"):
            self._patch(ExecutionEngine, attribute, lambda fn: span(fn, engine_layer))
        self._patch(concurrent.futures.Future, "result", self._wait_wrapper)

        def scored(args, result) -> None:
            items = args[1]
            self.count("ranking.items_scored", len(items) if hasattr(items, "__len__") else 0)

        for attribute in RANKING_ENTRY_POINTS:
            self._patch(Ranker, attribute, lambda fn: span(fn, "ranking", scored))
        self._patch(CatalogStore, "usage_stats", lambda fn: count_calls(fn, "fields.usage_lookups"))
        self._patch(ViewFactory, "build", lambda fn: span(fn, "views.build"))
        for module in (factory_module, discovery_module):
            self._patch(module, "make_card", lambda fn: count_calls(fn, "views.cards"))

        def rendered(args, result) -> None:
            self.count("render.bytes", len(result.encode("utf-8")))

        self._patch(render_text, "render_tabs_text", lambda fn: span(fn, "render", rendered))
        for attribute in CATALOG_READS:
            self._patch(CatalogStore, attribute, lambda fn: span(fn, "catalog.read"))
        for attribute in CATALOG_WRITES:
            self._patch(CatalogStore, attribute, lambda fn: span(fn, "catalog.write"))
        self._patch(EventStream, "record", lambda fn: span(fn, "catalog.write"))
        # The sqlite backend subclasses the lineage graph.
        for cls in (LineageGraph, *LineageGraph.__subclasses__()):
            if "add_edge" in vars(cls):
                self._patch(cls, "add_edge", lambda fn: span(fn, "catalog.write"))
        self._patch(CatalogStore, "flush", lambda fn: span(fn, "catalog.flush"))
        self._patch(EventStream, "flush", lambda fn: span(fn, "catalog.flush"))

        def merged(args, result) -> None:
            if result.degraded or result.failed:
                self.count("federation.partial_results")

        self._patch(FederatedCatalog, "search", lambda fn: span(fn, "federation.search", merged))

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    @contextmanager
    def segment(self):
        """One traced segment: wrappers installed and recording on."""
        self.install()
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    # -- engine counters -----------------------------------------------------

    def engine_totals(self) -> dict[str, int]:
        """Summed ``ExecutionStats`` totals over every hooked engine."""
        summed: dict[str, int] = {}
        for engine in self.engines:
            for name, value in engine.stats.snapshot()["totals"].items():
                summed[name] = summed.get(name, 0) + value
        return summed


def sqlite_query_ms() -> float:
    """Total statement time on the process-wide ``sqlite_query_ms`` histogram."""
    from repro.obs import default_registry

    family = default_registry().collect().get("sqlite_query_ms")
    if family is None:
        return 0.0
    return sum(series["sum"] for series in family["series"].values())


def layer_metrics(
    spans: dict[str, list[int]],
    counts: dict[str, int],
    engine: dict[str, int],
    ops: int,
    sqlite_ms: float,
    store_bytes: int,
    writes: int,
    overhead: float,
) -> dict[str, float]:
    """Per-layer metrics from a traced run's aggregates.

    *engine* holds ``ExecutionStats`` total deltas over the traced
    segments; *ops* is the number of traced ops every ``/op`` figure is
    divided by.
    """
    per_op = 1.0 / ops if ops else 0.0

    def calls(*names: str) -> float:
        return sum(spans.get(name, (0, 0, 0))[0] for name in names) * per_op

    def total_ms(*names: str) -> float:
        return sum(spans.get(name, (0, 0, 0))[1] for name in names) / 1e6 * per_op

    def self_ms(*names: str) -> float:
        return sum(spans.get(name, (0, 0, 0))[2] for name in names) / 1e6 * per_op

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits, misses = engine.get("cache_hits", 0), engine.get("cache_misses", 0)
    skipped = engine.get("fetches_skipped", 0)
    patches, fallbacks = engine.get("delta_patches", 0), engine.get("delta_fallbacks", 0)
    op_calls, op_total, op_self = spans.get("op", (0, 0, 0))
    return {
        "query.parse.self_ms": self_ms("query.parse"),
        "query.plan.self_ms": self_ms("query.plan"),
        "query.eval.self_ms": self_ms("query.eval"),
        "query.planner_skip_ratio": share(skipped, skipped + hits + misses),
        "engine.calls": calls("engine", "federation.fanout"),
        "engine.self_ms": self_ms("engine", "federation.fanout"),
        "engine.wait_ms": total_ms("engine.wait"),
        "engine.cache_hit_ratio": share(hits, hits + misses),
        "engine.single_flights": engine.get("single_flights", 0) * per_op,
        "engine.invalidations": engine.get("invalidations", 0) * per_op,
        "engine.delta_patch_ratio": share(patches, patches + fallbacks),
        "provider.invoke.calls": calls("provider.invoke"),
        "provider.invoke.ms": total_ms("provider.invoke"),
        "provider.errors": counts.get("provider.errors", 0) * per_op,
        "ranking.self_ms": self_ms("ranking"),
        "ranking.items_scored": counts.get("ranking.items_scored", 0) * per_op,
        "fields.usage_lookups": counts.get("fields.usage_lookups", 0) * per_op,
        "views.build.calls": calls("views.build"),
        "views.build.self_ms": self_ms("views.build"),
        "views.cards": counts.get("views.cards", 0) * per_op,
        "render.self_ms": self_ms("render"),
        "render.bytes": counts.get("render.bytes", 0) * per_op,
        "interface.self_ms": self_ms("interface"),
        "catalog.read.calls": calls("catalog.read"),
        "catalog.read.self_ms": self_ms("catalog.read"),
        "catalog.write.calls": calls("catalog.write"),
        "catalog.write.self_ms": self_ms("catalog.write"),
        "catalog.flush.calls": calls("catalog.flush"),
        "catalog.flush.ms": total_ms("catalog.flush"),
        "sqlite.query_ms": sqlite_ms * per_op,
        "catalog.bytes_per_write": share(store_bytes, writes),
        "federation.search.self_ms": self_ms("federation.search", "federation.member"),
        "federation.fanout.ms": total_ms("federation.fanout"),
        "federation.member_calls": calls("federation.member"),
        "federation.partial_results": counts.get("federation.partial_results", 0) * per_op,
        "trace.coverage": share(op_total - op_self, op_total),
        "trace.overhead": overhead,
    }
