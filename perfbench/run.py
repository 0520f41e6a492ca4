"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload overview_warm --seed 1 --seconds 12 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), measures the untraced closed loop for ``--seconds`` and prints
the end-to-end metrics.  ``--trace 1`` sets up once and alternates
untraced and traced segments over the same ``--seconds``; it prints the
per-layer metrics, with ``trace.overhead`` taken as the median traced
over the median untraced throughput.

Every answer is checked against an oracle after its timer stops.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it are a
human-readable table.  Each run also appends a record with its
provenance to ``perfbench/results/<workload>.<seconds>s.trace<t>.jsonl``:
one ledger per run length, append-only, so a short run can never replace
a full-length record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 3
#: Untraced/traced segment order of a ``--trace 1`` run (False = untraced).
#: ABBA order balances drift, e.g. a cold workload's cache filling up.
TRACE_ORDER = (False, True, True, False, False, True, True, False)


def _import_program():
    """Put the benchmark and the program on the path; fail without them."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {ROOT / 'src'}; "
                         "run from a checkout of the repository")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- provenance ------------------------------------------------------------


def git_sha(root: Path = ROOT) -> str | None:
    """HEAD's commit id read from ``.git`` (no subprocess); None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_digest(root: Path = ROOT) -> str:
    """sha256 over the program's source files; identifies the code even
    in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int, seconds: float, trace: int, artifacts: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "artifacts": artifacts,
        "n_tables": workload.n_tables,
        "clients": workload.clients,
        "setup_repeats": 1 if trace else SETUP_REPEATS,
        "segments": len(TRACE_ORDER) if trace else 1,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def append_record(record: dict, results: Path = RESULTS) -> Path:
    """Append *record* to its ledger; the ledger name carries the run
    length and trace mode, and nothing is ever rewritten."""
    prov = record["provenance"]
    results.mkdir(parents=True, exist_ok=True)
    ledger = results / f"{prov['workload']}.{prov['run_seconds']:g}s.trace{prov['trace']}.jsonl"
    index = 0
    if ledger.exists():
        with ledger.open() as existing:
            index = sum(1 for line in existing if line.strip())
    prov["run_index"] = index
    prov["run_count"] = index + 1
    with ledger.open("a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    return ledger


# -- running ----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Run every thread on one CPU, so the host probe taken on the client
    thread measures the core that the engine's pool threads use as well.

    The threads share the interpreter lock, so one core costs them
    little; without this, ops that fan out to the pool were slowed by
    load on the other core that the probe never saw (on a shared 2-vCPU
    VM, ``explore`` lost 25% over two minutes while the probe stayed flat).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def freeze_setup_heap() -> None:
    """Collect, then move everything set-up allocated to the collector's
    permanent generation, as a long-running server does after warm-up.

    Otherwise every full collection re-walks the static catalog (about
    90 ms at 3.6k artifacts on a 2-vCPU VM) and lands on a few percent of
    the timed ops,
    so a p95 flips between two modes from run to run.
    """
    gc.collect()
    gc.freeze()


def kind_summaries(samples: list) -> dict:
    from perfbench.metrics import latency_summary

    by_kind: dict[str, list[float]] = {}
    for kind, latency in samples:
        by_kind.setdefault(kind, []).append(latency)
    return {kind: latency_summary(values) for kind, values in sorted(by_kind.items())}


def time_gaps(samples: list) -> dict:
    """Per op kind, the mean blocked time (counted in the latency) and the
    mean wall-minus-measured gap (not counted: stolen slices, other
    processes on the CPU), in ms."""
    by_kind: dict[str, list] = {}
    for sample in samples:
        by_kind.setdefault(sample.kind, []).append(sample)
    return {
        kind: {
            "blocked_ms": sum(s.blocked_ms for s in group) / len(group),
            "uncounted_ms": sum(s.wall_ms - s.cpu_ms - s.blocked_ms for s in group) / len(group),
        }
        for kind, group in sorted(by_kind.items())
    }


def run_untraced(workload, seed: int, seconds: float) -> dict:
    """Measure on the first set-up; the second, also timed, serves as the
    oracle where the workload can use one; more set-ups only for timing."""
    from perfbench.hostspeed import normalise, raw
    from perfbench.metrics import closed_loop_throughput, median, percentile

    clocks = []

    def timed_setup():
        deployment, clock = workload.setup()
        clocks.append(clock)
        return deployment

    deployment = timed_setup()
    pools = deployment.pools
    streams = [workload.ops(pools, seed, client) for client in range(workload.clients)]
    freeze_setup_heap()
    measured = workload.measure(deployment, streams, seconds)
    rss = peak_rss_mb()
    gc.unfreeze()
    workload.finish(deployment, measured, timed_setup)
    del deployment
    while len(clocks) < SETUP_REPEATS:
        gc.collect()
        workload.close(timed_setup())
    samples = normalise(measured.samples)
    kinds = kind_summaries(samples)
    latencies = [latency for _, latency in samples]
    end_to_end = {
        "setup_s": median([clock.normalised_s for clock in clocks]),
        "throughput_ops_s": closed_loop_throughput(samples),
        "search_mean_ms": kinds["search"]["mean"],
        "op_p95_ms": percentile(latencies, 0.95),
        "peak_rss_mb": rss,
    }
    detail = {
        "setup_runs_s": [clock.normalised_s for clock in clocks],
        "setup_runs_raw_s": [clock.raw_s for clock in clocks],
        "ops": measured.completed,
        "op_p90_ms": percentile(latencies, 0.90),
        "op_p99_ms": percentile(latencies, 0.99),
        "kinds": kinds,
        "kinds_raw": kind_summaries(raw(measured.samples)),
        "throughput_raw": closed_loop_throughput(raw(measured.samples)),
        "time_gaps": time_gaps(measured.samples),
        "loop_overhead_ms_per_op": 1000.0 * measured.overhead_s / max(1, measured.attempted),
        "probe_us": {"p5": percentile([s.probe_us for s in measured.samples], 0.05),
                     "p50": percentile([s.probe_us for s in measured.samples], 0.50),
                     "p95": percentile([s.probe_us for s in measured.samples], 0.95)},
        "error_rate": measured.failed / measured.attempted if measured.attempted else 1.0,
    }
    for kind, summary in kinds.items():
        detail[f"{kind}_p50_ms"] = summary["p50"]
        detail[f"{kind}_p95_ms"] = summary["p95"]
    if measured.store_bytes:
        detail["store_mb"] = measured.store_bytes / 2**20
    return {"measurement": measured, "metrics": end_to_end, "detail": detail,
            "artifacts": pools.artifact_count}


def run_traced(workload, seed: int, seconds: float) -> dict:
    from perfbench.hostspeed import normalise
    from perfbench.metrics import closed_loop_throughput, median
    from perfbench.tracing import LayerTracer, layer_metrics, sqlite_query_ms
    from perfbench.workloads import Measurement

    tracer = LayerTracer()
    with tracer.hook_engines():
        deployment, _ = workload.setup()
    tracer.fanout_engines.update(id(engine) for engine in workload.fanout_engines(deployment))
    pools = deployment.pools
    streams = [workload.ops(pools, seed, client) for client in range(workload.clients)]
    total = Measurement()
    throughput: dict[bool, list[float]] = {False: [], True: []}
    engine: dict[str, int] = {}
    sqlite_ms = 0.0
    grown = writes = traced_ops = 0
    segment_s = seconds / len(TRACE_ORDER)
    freeze_setup_heap()
    for traced in TRACE_ORDER:
        if traced:
            engine_before, sqlite_before = tracer.engine_totals(), sqlite_query_ms()
            bytes_before = workload.store_bytes(deployment)
            with tracer.segment():
                measured = workload.measure(deployment, streams, segment_s, tracer,
                                            checks=False)
            for name, value in tracer.engine_totals().items():
                engine[name] = engine.get(name, 0) + value - engine_before.get(name, 0)
            sqlite_ms += sqlite_query_ms() - sqlite_before
            grown += workload.store_bytes(deployment) - bytes_before
            writes += sum(1 for sample in measured.samples if sample.kind == "write")
            traced_ops += measured.completed
        else:
            measured = workload.measure(deployment, streams, segment_s)
        throughput[traced].append(closed_loop_throughput(normalise(measured.samples)))
        total.merge(measured)
    gc.unfreeze()
    workload.finish(deployment, total)
    spans, counts = tracer.totals()
    untraced = median(throughput[False])
    overhead = median(throughput[True]) / untraced if untraced else 0.0
    per_layer = layer_metrics(spans, counts, engine, traced_ops, sqlite_ms, grown, writes, overhead)
    detail = {
        "traced_ops": traced_ops,
        "throughput_untraced": throughput[False],
        "throughput_traced": throughput[True],
        "engine_deltas": engine,
        "spans": {name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                  for name, (c, t, s) in sorted(spans.items())},
        "counts": counts,
    }
    return {"measurement": total, "metrics": per_layer, "detail": detail,
            "artifacts": pools.artifact_count}


def run(name: str, seed: int, seconds: float, trace: int, *, n_tables: int | None = None,
        results: Path | None = RESULTS) -> dict:
    """Run one workload; returns the result line plus the full record."""
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOAD_CLASSES

    if name not in WORKLOAD_CLASSES:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOAD_CLASSES)}")
    workload = WORKLOAD_CLASSES[name](n_tables=n_tables)
    outcome = (run_traced if trace else run_untraced)(workload, seed, seconds)
    measured = outcome["measurement"]
    units = {metric.name: metric.unit for metric in (PER_LAYER if trace else END_TO_END)}
    line = {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {key: {"value": outcome["metrics"][key], "unit": unit}
                    for key, unit in units.items()},
    }
    record = {
        "provenance": provenance(workload, seed, seconds, trace, outcome["artifacts"]),
        "result": line,
        "detail": outcome["detail"],
        "failures": measured.failures,
    }
    if results is not None:
        append_record(record, results)
    return {"line": line, "record": record}


def render_table(record: dict) -> str:
    from perfbench.metrics import PER_LAYER

    prov, line, detail = record["provenance"], record["result"], record["detail"]
    rows = [f"perfbench {prov['workload']}: seed {prov['seed']}, {prov['run_seconds']:g} s, "
            f"trace {prov['trace']}, {prov['artifacts']} artifacts, "
            f"{prov['clients']} client(s), git {prov['git_sha'] or 'n/a'}"]
    moves = {metric.name: metric.moves for metric in PER_LAYER}
    for name, metric in line["metrics"].items():
        target = f"  -> {'; '.join(moves[name])}" if prov["trace"] and moves.get(name) else ""
        rows.append(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']:<8}{target}")
    if not prov["trace"]:
        rows.append(f"  setup runs (s): {', '.join(f'{v:.3f}' for v in detail['setup_runs_s'])}")
        for kind, summary in detail["kinds"].items():
            note = "" if summary["p95_valid"] else " (p95 has fewer than 10 samples beyond it)"
            rows.append(f"  {kind + '_p50_ms':<28} {summary['p50']:>14.4f} ms  n={summary['count']}")
            rows.append(f"  {kind + '_p95_ms':<28} {summary['p95']:>14.4f} ms  n={summary['count']}{note}")
            gaps = detail["time_gaps"][kind]
            rows.append(f"  {kind + ' blocked (counted)':<28} {gaps['blocked_ms']:>14.4f} ms/op"
                        f"  wall gap not counted {gaps['uncounted_ms']:.4f} ms/op")
        rows.append(f"  {'benchmark loop overhead':<28} "
                    f"{detail['loop_overhead_ms_per_op']:>14.4f} ms/op")
        if "store_mb" in detail:
            rows.append(f"  {'store_mb':<28} {detail['store_mb']:>14.4f} MB")
        rows.append(f"  {'error_rate':<28} {detail['error_rate']:>14.4f}   "
                    f"({line['failed']} of {line['attempted']})")
    else:
        rows.append(f"  traced ops: {detail['traced_ops']}; span table (ms over all traced ops):")
        for name, span in detail["spans"].items():
            rows.append(f"    {name:<22} calls {span['calls']:>8}  total {span['total_ms']:>10.2f}"
                        f"  self {span['self_ms']:>10.2f}")
    for failure in record["failures"]:
        rows.append(f"  FAILED: {failure}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    pin_to_one_cpu()
    outcome = run(args.workload, args.seed, args.seconds, args.trace)
    print(render_table(outcome["record"]))
    print(json.dumps(outcome["line"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
