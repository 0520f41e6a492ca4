"""Shared benchmark fixtures and the experiment-report writer.

Each experiment benchmark (E1–E10, see DESIGN.md) times its core operation
with pytest-benchmark *and* writes a paper-vs-measured table to
``benchmarks/results/EXX_*.txt`` so the reproduced numbers survive the
run.  EXPERIMENTS.md indexes those files.

The ``BENCH_*`` benches also emit a JSON record through
:func:`write_bench`.  ``BENCH_SMOKE=1`` runs every one of them at its
small CI size.  Under it every writer here names its output
``<id>.smoke.*`` (``E8_scaling.smoke.txt``,
``BENCH_<name>.smoke.{txt,json}``), so a smoke run never overwrites a
committed full-scale record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.synth import SynthConfig, generate_catalog, study_catalog
from repro.workbook.app import WorkbookApp

RESULTS_DIR = Path(__file__).parent / "results"

#: The one switch for small CI-sized runs of the ``BENCH_*`` benches:
#: correctness invariants only, the comparative gates need full scale.
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: The op mix ``BENCH_load`` and ``BENCH_obs`` drive: the study-task
#: shape with more overview opens and touches than the harness default,
#: so tenant isolation and invalidation both stay under load.
LOAD_MIX = {"search": 0.40, "overview": 0.25, "explore": 0.10,
            "suggest": 0.10, "touch": 0.15}


def _stem(experiment_id: str) -> str:
    return f"{experiment_id}.smoke" if SMOKE else experiment_id


def write_result(experiment_id: str, title: str, body: str) -> Path:
    """Persist one experiment's output table (``<id>.smoke.txt`` under
    ``BENCH_SMOKE``)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{_stem(experiment_id)}.txt"
    path.write_text(f"{experiment_id} — {title}\n\n{body}\n", encoding="utf-8")
    return path


def write_bench(name: str, title: str, body: str, payload: object) -> Path:
    """Persist one ``BENCH_<name>`` record: the text table and the JSON
    payload.  Smoke runs write ``BENCH_<name>.smoke.*`` beside the
    full-scale record instead of over it.  Returns the JSON path."""
    write_result(f"BENCH_{name}", title, body)
    path = RESULTS_DIR / f"{_stem(f'BENCH_{name}')}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def study_store():
    return study_catalog()


@pytest.fixture(scope="session")
def bench_app(study_store):
    return WorkbookApp(study_store)


@pytest.fixture(scope="session")
def mid_store():
    """A mid-size catalog for provider/query benchmarks."""
    return generate_catalog(SynthConfig(seed=7, n_tables=400,
                                        usage_events=8000))


@pytest.fixture(scope="session")
def mid_app(mid_store):
    return WorkbookApp(mid_store)
