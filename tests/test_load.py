"""The concurrent load harness (:mod:`repro.load`) on both deployments.

Each deployment has an inline isolation check — tenant customizations
on workbook overviews, member attribution on federated searches.  A
clean run must count checks and no violations, and a planted fault must
be counted, or a zero would prove nothing.
"""

import pytest

from repro.federation import member_search_endpoint_uri
from repro.load import LoadConfig, LoadHarness, run_load
from repro.synth import SynthConfig, generate_catalog


def _catalog():
    return generate_catalog(
        SynthConfig(seed=11, n_tables=60, usage_events=1500)
    )


@pytest.fixture
def store():
    """A fresh catalog: workbook runs record usage (touch ops)."""
    return _catalog()


@pytest.fixture(scope="module")
def corpus():
    """Federated runs leave the source store untouched."""
    return _catalog()


class TestWorkbookDeployment:
    def test_small_run_is_clean(self, store):
        config = LoadConfig(sessions=12, ops_per_session=4, concurrency=4)
        report = run_load(store, config)
        assert report.errors == 0
        assert report.ops == config.sessions * config.ops_per_session
        assert report.isolation_checks > 0
        assert report.isolation_violations == 0
        assert report.to_dict()["parts"] == 1

    def test_leaked_customization_is_counted(self, store):
        harness = LoadHarness(
            store,
            LoadConfig(sessions=8, ops_per_session=3, concurrency=2,
                       mix={"overview": 1.0}),
        )
        # Plant a leak: one tenant's hidden provider hidden for everyone.
        team = sorted(t.id for t in store.teams())[0]
        customization = harness.app.customization
        leaked = next(iter(customization.team_layer(team).hidden))
        customization.org.hide(leaked)
        report = harness.run()
        assert report.errors == 0
        assert report.isolation_violations > 0


class TestFederatedDeployment:
    def test_concurrent_federated_load_has_no_leaks_or_errors(self, corpus):
        report = run_load(
            corpus,
            LoadConfig(sessions=16, ops_per_session=4, concurrency=4,
                       parts=3),
        )
        assert report.errors == 0
        assert report.isolation_violations == 0
        assert report.isolation_checks > 0
        assert report.ops == 16 * 4
        rendered = report.render()
        assert "0 isolation violations" in rendered
        assert report.to_dict()["parts"] == 3

    def test_misattributed_member_is_counted(self, corpus):
        harness = LoadHarness(
            corpus,
            LoadConfig(sessions=8, ops_per_session=3, concurrency=2,
                       parts=3, mix={"search": 1.0}),
        )
        # Plant a fault: cat1's search endpoint answers with cat2's
        # artifacts, which the merge then attributes to cat1.
        registry = harness.discovery.registry
        registry.register(
            member_search_endpoint_uri("cat1"),
            registry.resolve(member_search_endpoint_uri("cat2")),
            replace=True,
        )
        report = harness.run()
        assert report.errors == 0
        assert report.isolation_violations > 0

    def test_traced_run_keeps_the_slowest_op_trees(self, corpus):
        report = run_load(
            corpus,
            LoadConfig(sessions=4, ops_per_session=3, concurrency=2,
                       parts=3, trace_slowest=2),
        )
        assert len(report.slowest) == 2
        for entry in report.slowest:
            assert entry["op"].startswith("op.")
            assert entry["spans"] and entry["tree"]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "parts, mix",
        [(1, {"stream": 1.0}), (1, {"artifact": 1.0}), (3, {"touch": 1.0})],
    )
    def test_unknown_mix_kind_raises(self, parts, mix):
        with pytest.raises(ValueError, match="unknown op kinds"):
            LoadConfig(parts=parts, mix=mix)

    def test_federated_naive_engine_raises(self, corpus):
        with pytest.raises(ValueError, match="single_flight"):
            run_load(corpus, LoadConfig(parts=3), single_flight=False)

    def test_federated_injected_latency_raises(self):
        with pytest.raises(ValueError, match="provider_latency_ms"):
            LoadConfig(parts=3, provider_latency_ms=5.0)
