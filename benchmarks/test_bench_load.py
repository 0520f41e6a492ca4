"""BENCH_load — concurrent multi-tenant serving: naive vs batched engine.

The load harness (:mod:`repro.load`) drives 1000 simulated sessions —
4000 operations, Zipf-skewed over users and queries, the study-task
query mix plus catalog writes — from 64 worker threads over one shared
``WorkbookApp``.  Every provider invocation pays a 25 ms injected
latency (a remote metadata service) and the engine's fetch pool is held
at 4 workers, so provider capacity is the scarce resource it is in
production.  Each tenant team carries its own customization (a hidden
overview provider) and alternating teams a policy overlay; the harness
verifies per-op that neither leaks across tenants.

Two configurations run the identical seeded workload:

* **naive** — ``single_flight=False``: concurrent identical fetches each
  invoke the provider and each occupy a pool slot;
* **batched** — cross-request single-flight: one provider call, N
  waiters, and ``execute_many`` keeps waiters out of the pool entirely.

The batched engine must beat naive on p99 latency *and* throughput, with
zero errors and zero cross-tenant leaks in both.  Emits
``benchmarks/results/BENCH_load.json`` plus the usual text table.

Set ``BENCH_SMOKE=1`` for a small-N run (CI smoke): correctness
invariants only — comparative latency claims need the full scale.
A smoke run writes ``BENCH_load.smoke.json`` and ``.txt`` instead.
"""

from benchmarks.conftest import LOAD_MIX, SMOKE, write_bench
from repro.load import LoadConfig, run_load
from repro.providers.execution import ExecutionPolicy
from repro.synth import SynthConfig, generate_catalog

_rows: dict[str, dict] = {}


def _config() -> LoadConfig:
    if SMOKE:
        return LoadConfig(
            sessions=60,
            ops_per_session=4,
            concurrency=8,
            provider_latency_ms=5.0,
            zipf_s=2.0,
            mix=LOAD_MIX,
            trace_slowest=5,
        )
    return LoadConfig(
        sessions=1000,
        ops_per_session=4,
        concurrency=64,
        provider_latency_ms=25.0,
        zipf_s=2.0,
        mix=LOAD_MIX,
        trace_slowest=5,
    )


def _run(single_flight: bool) -> dict:
    # A fresh catalog per run: touch ops mutate usage, and both modes
    # must see identical starting state.
    store = generate_catalog(
        SynthConfig(seed=7, n_tables=60 if SMOKE else 150)
    )
    report = run_load(
        store,
        _config(),
        single_flight=single_flight,
        policy=ExecutionPolicy.defaults().replace(
            max_workers=2 if SMOKE else 4
        ),
    )
    return report.to_dict()


def test_bench_load_batched_beats_naive():
    naive = _run(single_flight=False)
    batched = _run(single_flight=True)
    _rows["naive"] = naive
    _rows["batched"] = batched

    for row in (naive, batched):
        assert row["errors"] == 0
        assert row["degradation"]["errors"] == 0
        assert row["isolation"]["checks"] > 0
        assert row["isolation"]["violations"] == 0

    assert naive["single_flights"] == 0
    assert batched["single_flights"] > 0
    assert batched["provider_calls"] < naive["provider_calls"]

    for row in (naive, batched):
        # trace_slowest=5: the report must carry reconstructed op traces.
        assert 0 < len(row["slowest"]) <= 5
        for entry in row["slowest"]:
            assert entry["op"].startswith("op.")
            assert entry["spans"] and entry["tree"]

    if not SMOKE:
        # The headline: at 1k concurrent sessions over a scarce provider
        # pool, coalescing wins both tail latency and throughput.
        assert batched["latency_ms"]["overall"]["p99"] < \
            naive["latency_ms"]["overall"]["p99"], (
                f"batched p99 {batched['latency_ms']['overall']['p99']:.0f}ms "
                f"not below naive {naive['latency_ms']['overall']['p99']:.0f}ms"
            )
        assert batched["throughput_ops_s"] > naive["throughput_ops_s"]


def test_bench_load_report():
    assert "batched" in _rows, "load benchmark did not run"
    lines = [
        f"{'config':>9}{'ops':>6}{'ops/s':>8}{'p50 ms':>8}{'p99 ms':>9}"
        f"{'hit':>7}{'sflt':>6}{'calls':>7}{'stale':>7}{'leaks':>6}"
    ]
    for label in ("naive", "batched"):
        row = _rows[label]
        overall = row["latency_ms"]["overall"]
        lines.append(
            f"{label:>9}{row['ops']:>6}{row['throughput_ops_s']:>8.1f}"
            f"{overall['p50']:>8.2f}{overall['p99']:>9.1f}"
            f"{row['hit_rate']:>7.3f}{row['single_flights']:>6}"
            f"{row['provider_calls']:>7}"
            f"{row['degradation']['stale_served']:>7}"
            f"{row['isolation']['violations']:>6}"
        )
    meta = _rows["batched"]
    lines.append(
        f"\n{meta['sessions']} sessions x {meta['concurrency']} threads, "
        f"{meta['provider_latency_ms']:.0f}ms injected provider latency, "
        f"Zipf-skewed users+queries, per-tenant customizations and policy "
        f"overlays, seed {meta['seed']}"
    )
    write_bench(
        "load",
        "Concurrent multi-tenant serving: cross-request single-flight "
        "batching vs naive shared engine",
        "\n".join(lines),
        _rows,
    )
