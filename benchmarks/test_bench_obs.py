"""BENCH_obs — observability overhead: tracing off, tracing on, exporters.

The :mod:`repro.obs` subsystem's contract is that it is effectively free
when off and cheap when on.  This benchmark pins both claims on the
PR-7 concurrent load harness (the same seeded multi-tenant workload as
``BENCH_load``):

* **off** — the default :data:`~repro.obs.trace.NOOP_TRACER`: the
  instrumented engine must stay within a few percent of pre-subsystem
  throughput (gate: wall-clock overhead vs itself is unmeasurable, so
  the off run is the baseline and a no-op span microbench documents the
  per-call cost);
* **on** — a real tracer exporting every span to a ring buffer; the
  full-fidelity trace must cost at most a modest double-digit slice.

Also measured: raw no-op vs live span throughput (spans/s), Prometheus
rendering and JSONL export throughput.  Emits
``benchmarks/results/BENCH_obs.json`` plus the usual text table.

Set ``BENCH_SMOKE=1`` for a small-N run (CI smoke): correctness
invariants only — the overhead gates need the full scale.
A smoke run writes ``BENCH_obs.smoke.json`` and ``.txt`` instead.
"""

from __future__ import annotations

import time

from benchmarks.conftest import LOAD_MIX, SMOKE, write_bench
from repro.load import LoadConfig, run_load
from repro.obs import (
    NOOP_TRACER,
    MetricsRegistry,
    RingBufferExporter,
    Tracer,
    export_jsonl,
)
from repro.providers.execution import ExecutionPolicy
from repro.synth import SynthConfig, generate_catalog

#: Overhead ceiling for tracing *on*, per the subsystem's acceptance
#: gate (full runs only; smoke runs are too noisy to gate on).
MAX_ON_OVERHEAD = 0.10

_rows: dict[str, dict] = {}


def _config(trace: bool) -> LoadConfig:
    base = dict(
        sessions=60 if SMOKE else 600,
        ops_per_session=4,
        concurrency=8 if SMOKE else 32,
        zipf_s=2.0,
        mix=LOAD_MIX,
    )
    return LoadConfig(trace_slowest=5 if trace else 0, **base)


def _run(trace: bool) -> dict:
    store = generate_catalog(
        SynthConfig(seed=7, n_tables=40 if SMOKE else 120)
    )
    report = run_load(
        store,
        _config(trace),
        policy=ExecutionPolicy.defaults().replace(max_workers=4),
    )
    d = report.to_dict()
    return {
        "ops": d["ops"],
        "errors": d["errors"],
        "wall_s": d["wall_s"],
        "throughput_ops_s": d["throughput_ops_s"],
        "p50_ms": d["latency_ms"]["overall"]["p50"],
        "p99_ms": d["latency_ms"]["overall"]["p99"],
        "traced_ops": len(d["slowest"]),
    }


def _span_throughput(tracer, n: int) -> float:
    started = time.perf_counter()
    for _ in range(n):
        with tracer.span("bench.op") as sp:
            if sp:
                sp.set("k", "v")
    return n / (time.perf_counter() - started)


def test_bench_obs_overhead():
    off = _run(trace=False)
    on = _run(trace=True)
    _rows["off"] = off
    _rows["on"] = on

    for row in (off, on):
        assert row["errors"] == 0
    assert off["traced_ops"] == 0
    assert 0 < on["traced_ops"] <= 5

    overhead = on["wall_s"] / off["wall_s"] - 1.0
    _rows["overhead"] = {
        "tracing_on_vs_off": round(overhead, 4),
        "gate": MAX_ON_OVERHEAD,
        "smoke": SMOKE,
    }
    if not SMOKE:
        assert overhead <= MAX_ON_OVERHEAD, (
            f"tracing-on overhead {overhead:.1%} exceeds "
            f"{MAX_ON_OVERHEAD:.0%} on the load workload"
        )


def test_bench_obs_span_microbench():
    n = 20_000 if SMOKE else 200_000
    noop_rate = _span_throughput(NOOP_TRACER, n)
    ring = RingBufferExporter(capacity=1024)
    live_rate = _span_throughput(Tracer(exporters=(ring,)), n)
    _rows["spans"] = {
        "noop_spans_per_s": round(noop_rate),
        "live_spans_per_s": round(live_rate),
        "noop_cost_ns": round(1e9 / noop_rate, 1),
        "live_cost_ns": round(1e9 / live_rate, 1),
    }
    # The no-op path must be dramatically cheaper than a live span —
    # that asymmetry is the whole point of the falsy singleton design.
    assert noop_rate > live_rate


def test_bench_obs_export_throughput():
    ring = RingBufferExporter()
    tracer = Tracer(exporters=(ring,))
    for i in range(500 if SMOKE else 5000):
        with tracer.span("op") as sp:
            sp.set("endpoint", f"x://p{i % 7}")
    spans = ring.spans()

    started = time.perf_counter()
    text = export_jsonl(spans)
    jsonl_s = time.perf_counter() - started
    assert text.count("\n") == len(spans)

    registry = MetricsRegistry()
    family = registry.counter("bench_total", ("endpoint",), "bench")
    hist = registry.histogram("bench_ms", ("endpoint",))
    for i in range(200):
        family.labels(f"x://p{i % 25}").inc()
        hist.labels(f"x://p{i % 25}").observe(float(i % 40))
    started = time.perf_counter()
    exposition = registry.render_prometheus()
    prom_s = time.perf_counter() - started
    assert "bench_total" in exposition and "bench_ms_bucket" in exposition

    _rows["export"] = {
        "jsonl_spans": len(spans),
        "jsonl_spans_per_s": round(len(spans) / jsonl_s) if jsonl_s else 0,
        "prometheus_lines": exposition.count("\n"),
        "prometheus_render_ms": round(prom_s * 1000.0, 3),
    }


def test_bench_obs_report():
    assert "overhead" in _rows, "obs benchmark did not run"
    off, on = _rows["off"], _rows["on"]
    lines = [
        f"{'config':>8}{'ops':>7}{'wall s':>9}{'ops/s':>9}"
        f"{'p50 ms':>9}{'p99 ms':>9}{'traced':>8}"
    ]
    for label, row in (("off", off), ("on", on)):
        lines.append(
            f"{label:>8}{row['ops']:>7}{row['wall_s']:>9.3f}"
            f"{row['throughput_ops_s']:>9.1f}{row['p50_ms']:>9.2f}"
            f"{row['p99_ms']:>9.2f}{row['traced_ops']:>8}"
        )
    overhead = _rows["overhead"]["tracing_on_vs_off"]
    lines.append(
        f"\ntracing-on overhead: {overhead:+.1%} wall clock "
        f"(gate {MAX_ON_OVERHEAD:.0%}{', smoke run — not gated' if SMOKE else ''})"
    )
    spans = _rows.get("spans", {})
    if spans:
        lines.append(
            f"span cost: no-op {spans['noop_cost_ns']:.0f} ns, "
            f"live {spans['live_cost_ns']:.0f} ns "
            f"({spans['noop_spans_per_s']:,} vs "
            f"{spans['live_spans_per_s']:,} spans/s)"
        )
    export = _rows.get("export", {})
    if export:
        lines.append(
            f"exporters: JSONL {export['jsonl_spans_per_s']:,} spans/s, "
            f"Prometheus {export['prometheus_lines']} lines in "
            f"{export['prometheus_render_ms']} ms"
        )
    write_bench(
        "obs",
        "Observability overhead: no-op vs live tracing on the concurrent "
        "load workload, plus exporter throughput",
        "\n".join(lines),
        _rows,
    )
