"""Self-tests for the benchmark itself (not the program).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run as runner
from perfbench import workloads
from perfbench.hostspeed import Sample, normalise, raw
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOAD_CLASSES, Pools, build_catalog

#: Catalog size for the fast end-to-end runs below.
SMALL = 60
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((runner.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pools() -> Pools:
    return Pools.from_store(build_catalog(SMALL))


def first_ops(name: str, pools: Pools, seed: int, count: int = 300) -> list:
    workload = WORKLOAD_CLASSES[name](n_tables=SMALL)
    return [
        list(itertools.islice(workload.ops(pools, seed, client), count))
        for client in range(workload.clients)
    ]


@pytest.mark.parametrize("name", list(WORKLOAD_CLASSES))
def test_same_seed_same_ops_other_seed_other_ops(name, pools):
    assert first_ops(name, pools, 1) == first_ops(name, pools, 1)
    assert first_ops(name, pools, 1) != first_ops(name, pools, 2)


def test_clients_get_distinct_streams(pools):
    first, second = first_ops("write_mix", pools, 1)
    assert first != second


def test_clients_take_turns_one_op_each(pools):
    streams = [iter("abc"), iter("xyz")]
    assert list(workloads.interleaved(streams)) == [
        (0, "a"), (1, "x"), (0, "b"), (1, "y"), (0, "c"), (1, "z"),
    ]


def test_benchmark_json_matches_the_definitions():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_CLASSES)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        cls.why for cls in WORKLOAD_CLASSES.values()
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert "setup_s" in {m.name for m in END_TO_END}
    assert max(m.bound for m in END_TO_END) == dict(
        (m.name, m.bound) for m in END_TO_END
    )["setup_s"]


def test_every_layer_metric_names_what_it_should_move():
    for metric in PER_LAYER:
        assert metric.layer
        if not metric.name.startswith("trace."):
            assert metric.moves, metric.name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOAD_CLASSES))
def test_emitted_metrics_are_declared(name, trace, tmp_path):
    outcome = runner.run(name, seed=3, seconds=1.0, trace=trace, n_tables=SMALL,
                         results=tmp_path)
    line = outcome["line"]
    assert line["attempted"] >= 1
    assert line["correct"], outcome["record"]["failures"]
    assert line["failed"] == 0
    declared = {m["name"]: m for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(line["metrics"]) == set(declared)
    for metric_name, metric in line["metrics"].items():
        assert NAME.match(metric_name)
        assert metric["unit"] == declared[metric_name]["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_a_reordered_search_answer_drives_error_rate_above_zero(tmp_path, monkeypatch):
    """Guard the guard: the oracle must notice one swapped pair."""
    workload_cls = WORKLOAD_CLASSES["overview_warm"]
    original = workload_cls.execute
    swapped = []

    def reordering(self, deployment, context, op):
        raw = original(self, deployment, context, op)
        if op.kind == "search" and not swapped and len(raw.entries) >= 2:
            swapped.append(op)
            first, second, *rest = raw.entries
            raw = dataclasses.replace(raw, entries=(second, first, *rest))
        return raw

    monkeypatch.setattr(workload_cls, "execute", reordering)
    outcome = runner.run("overview_warm", seed=3, seconds=1.0, trace=0,
                         n_tables=SMALL, results=tmp_path)
    assert swapped
    assert outcome["line"]["failed"] >= 1
    assert not outcome["line"]["correct"]
    assert outcome["record"]["detail"]["error_rate"] > 0


def test_an_acknowledged_write_missing_after_reopen_is_a_failure(tmp_path, monkeypatch):
    """Guard the guard: the durability check must notice a lost write."""
    deployment_cls = workloads.WriteDeployment
    original = deployment_cls.acknowledge

    def acknowledge_a_phantom(self, ledger):
        original(self, ledger)
        self.acked.append(("lineage", (self.pools.artifacts[0], "never-written", "derives")))

    monkeypatch.setattr(deployment_cls, "acknowledge", acknowledge_a_phantom)
    outcome = runner.run("write_mix", seed=3, seconds=1.0, trace=0, n_tables=SMALL,
                         results=tmp_path)
    assert outcome["line"]["failed"] >= 1
    assert any("durability" in failure for failure in outcome["record"]["failures"])


def test_blocked_time_counts_in_the_latency_unscaled():
    """Time blocked on I/O or a sleep is part of an op's latency; only the
    CPU part is scaled to the reference host speed."""
    slow_host = Sample("write", cpu_ms=2.0, probe_us=200.0, blocked_ms=10.0, wall_ms=13.0)
    assert normalise([slow_host]) == [("write", 2.0 / 2 + 10.0)]
    assert raw([slow_host]) == [("write", 12.0)]


def test_a_short_run_never_touches_the_full_length_ledger(tmp_path):
    def record(seconds: float) -> dict:
        return {"provenance": {"workload": "overview_warm", "run_seconds": seconds, "trace": 0}}

    full = runner.append_record(record(15), tmp_path)
    before = full.read_bytes()
    smoke = runner.append_record(record(1), tmp_path)
    assert smoke != full
    assert full.read_bytes() == before
    again = runner.append_record(record(15), tmp_path)
    assert again == full and full.read_bytes().startswith(before)
    indices = [json.loads(line)["provenance"]["run_index"]
               for line in full.read_text().splitlines()]
    assert indices == [0, 1]


def test_provenance_names_the_code_and_the_machine():
    workload = WORKLOAD_CLASSES["write_mix"](n_tables=SMALL)
    prov = runner.provenance(workload, seed=5, seconds=15, trace=0, artifacts=123)
    assert len(prov["src_sha256"]) == 64
    for key in ("python", "nproc", "seed", "artifacts", "run_seconds", "setup_repeats"):
        assert prov[key]


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(runner.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(runner.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "overview_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
