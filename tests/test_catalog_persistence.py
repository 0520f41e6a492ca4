"""Round-trip tests for catalog persistence."""

import json
import sys
import threading

import pytest

from repro.catalog.model import Artifact, Team, UsageEvent, User
from repro.catalog.persistence import (
    FORMAT_VERSION,
    catalog_from_dict,
    catalog_to_dict,
    load_catalog,
    save_catalog,
)
from repro.catalog.sqlite_backend import SqliteBackend
from repro.catalog.store import CatalogStore
from repro.errors import CatalogError


class TestRoundTrip:
    def test_entities_survive(self, tiny_store, tmp_path):
        path = save_catalog(tiny_store, tmp_path / "catalog.json")
        loaded = load_catalog(path)
        assert loaded.artifact_count == tiny_store.artifact_count
        assert loaded.user_count == tiny_store.user_count
        assert loaded.team_count == tiny_store.team_count
        assert loaded.artifact_ids() == tiny_store.artifact_ids()

    def test_artifact_details_survive(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        orders = loaded.artifact("t-orders")
        original = tiny_store.artifact("t-orders")
        assert orders.name == original.name
        assert orders.columns == original.columns
        assert orders.badges == original.badges
        assert orders.tags == original.tags
        assert orders.created_at == original.created_at

    def test_usage_and_indexes_rebuilt(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        assert (
            loaded.usage_stats("t-orders").view_count
            == tiny_store.usage_stats("t-orders").view_count
        )
        assert loaded.by_badge("endorsed") == tiny_store.by_badge("endorsed")
        assert loaded.by_owner("u-ann") == tiny_store.by_owner("u-ann")

    def test_lineage_survives(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        assert loaded.lineage.edges() == tiny_store.lineage.edges()

    def test_clock_restored(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        assert loaded.clock.now() == tiny_store.clock.now()
        assert loaded.clock.epoch == tiny_store.clock.epoch

    def test_double_round_trip_is_stable(self, tiny_store, tmp_path):
        once = catalog_to_dict(tiny_store)
        twice = catalog_to_dict(catalog_from_dict(once))
        assert once == twice

    def test_search_and_index_sizes_match_fresh_rebuild(self, tiny_store,
                                                        tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        for token in ("orders", "revenue", "the"):
            assert loaded.search_tokens([token]) == \
                tiny_store.search_tokens([token])
        for kind, key in [("type", "table"), ("badge", "endorsed"),
                          ("owner", "u-ann"), ("token", "orders")]:
            assert loaded.index_size(kind, key) == \
                tiny_store.index_size(kind, key), (kind, key)


class TestVersionCounters:
    """Format v2 round-trips the per-domain mutation counters, so engine
    caches keyed on ``(domain, version)`` stay coherent across a reload."""

    def test_v2_payload_carries_counters(self, tiny_store):
        payload = catalog_to_dict(tiny_store)
        assert payload["domain_versions"] == tiny_store.domain_versions
        assert payload["total_version"] == tiny_store.version

    def test_reloaded_counters_never_regress(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        for domain, counter in tiny_store.domain_versions.items():
            assert loaded.domain_version(domain) >= counter, domain
        assert loaded.version >= tiny_store.version

    def test_v1_payload_loads_with_conservative_full_bump(self, tiny_store):
        payload = catalog_to_dict(tiny_store)
        payload["version"] = 1
        del payload["domain_versions"]
        del payload["total_version"]
        legacy = catalog_from_dict(payload)

        # Reference: the same records loaded with no counter restoration.
        reference_payload = dict(payload, version=FORMAT_VERSION)
        reference = catalog_from_dict(reference_payload)

        # Content is identical...
        assert legacy.artifact_ids() == reference.artifact_ids()
        # ...but every domain got exactly one extra conservative bump.
        for domain, counter in reference.domain_versions.items():
            assert legacy.domain_version(domain) == counter + 1, domain


class TestFormat:
    def test_unknown_version_rejected(self, tiny_store):
        payload = catalog_to_dict(tiny_store)
        payload["version"] = 99
        with pytest.raises(CatalogError, match="version"):
            catalog_from_dict(payload)

    def test_file_is_valid_json(self, tiny_store, tmp_path):
        path = save_catalog(tiny_store, tmp_path / "c.json")
        payload = json.loads(path.read_text())
        assert payload["version"] == FORMAT_VERSION
        assert len(payload["artifacts"]) == 6

    def test_save_creates_parent_dirs(self, tiny_store, tmp_path):
        path = save_catalog(tiny_store, tmp_path / "deep" / "dir" / "c.json")
        assert path.exists()


class TestSegments:
    """Segmented JSON-stream export (see repro.catalog.segments)."""

    def _export(self, tiny_store, tmp_path, records=3):
        from repro.catalog.segments import export_segments

        return export_segments(tiny_store, tmp_path / "seg",
                               segment_records=records)

    def test_round_trip(self, tiny_store, tmp_path):
        from repro.catalog.segments import import_segments

        self._export(tiny_store, tmp_path)
        rebuilt = import_segments(tmp_path / "seg")
        assert rebuilt.artifact_ids() == tiny_store.artifact_ids()
        assert rebuilt.user_count == tiny_store.user_count
        assert len(rebuilt.usage) == len(tiny_store.usage)
        assert rebuilt.lineage.edges() == tiny_store.lineage.edges()
        assert rebuilt.clock.now() == tiny_store.clock.now()
        for domain, counter in tiny_store.domain_versions.items():
            assert rebuilt.domain_version(domain) >= counter, domain

    def test_segments_are_bounded(self, tiny_store, tmp_path):
        import json as _json

        self._export(tiny_store, tmp_path, records=2)
        manifest = _json.loads(
            (tmp_path / "seg" / "manifest.json").read_text()
        )
        entities = manifest["streams"]["entities"]
        assert len(entities["segments"]) >= 3  # 6 artifacts / 2 per segment
        assert all(s["records"] <= 2 for s in entities["segments"])

    def test_reexport_skips_unchanged_segments(self, tiny_store, tmp_path):
        self._export(tiny_store, tmp_path)
        mtimes = {
            p.name: p.stat().st_mtime_ns
            for p in (tmp_path / "seg").iterdir()
            if p.name != "manifest.json"
        }
        self._export(tiny_store, tmp_path)
        for p in (tmp_path / "seg").iterdir():
            if p.name != "manifest.json":
                assert p.stat().st_mtime_ns == mtimes[p.name], p.name

    def test_unknown_manifest_format_rejected(self, tiny_store, tmp_path):
        import json as _json

        from repro.catalog.segments import import_segments

        self._export(tiny_store, tmp_path)
        manifest_path = tmp_path / "seg" / "manifest.json"
        payload = _json.loads(manifest_path.read_text())
        payload["format"] = 99
        manifest_path.write_text(_json.dumps(payload))
        with pytest.raises(CatalogError, match="format"):
            import_segments(tmp_path / "seg")

    def test_import_into_persistent_store(self, tiny_store, tmp_path):
        from repro.catalog.segments import import_segments
        from repro.catalog.store import CatalogStore

        self._export(tiny_store, tmp_path)
        with CatalogStore.open(tmp_path / "catalog.db") as target:
            import_segments(tmp_path / "seg", store=target)
        with CatalogStore.open(tmp_path / "catalog.db") as reloaded:
            assert reloaded.artifact_ids() == tiny_store.artifact_ids()
            assert reloaded.by_badge("endorsed") == \
                tiny_store.by_badge("endorsed")


class TestWriteBehindUnderConcurrentFlush:
    """A sqlite store buffers usage events and lineage edges until
    ``flush``.  Writes that land while another thread flushes must reach
    disk: the flush drains and clears the buffers under the backend lock,
    so appending outside it used to lose the writes in between (and could
    crash the flush with "Set changed size during iteration")."""

    BATCHES = 500
    BATCH = 40
    EDGES = 1000

    def test_writes_survive_a_concurrent_flusher(self, tmp_path):
        path = tmp_path / "catalog.db"
        ids = [f"a{i}" for i in range(20)]
        with CatalogStore.open(path) as store:
            store.add_user(User(id="u1", name="Ada", role="analyst"))
            for aid in ids:
                store.add_artifact(
                    Artifact(id=aid, name=aid, artifact_type="table")
                )
        done = threading.Event()
        failures: list = []
        store = CatalogStore.open(path)

        def writer() -> None:
            try:
                for b in range(self.BATCHES):
                    # The coalescing write path: one call folds a batch.
                    store.record_events([
                        UsageEvent(ids[(b + j) % len(ids)], "u1", "view", 0.0)
                        for j in range(self.BATCH)
                    ])
                    for e in range(b, self.EDGES, self.BATCHES):
                        store.lineage.add_edge(f"src-{e}", f"dst-{e}")
            except Exception as exc:  # noqa: BLE001 - the test's verdict
                failures.append(repr(exc))
            finally:
                done.set()

        def flusher() -> None:
            try:
                while not done.is_set():
                    store.flush()
            except Exception as exc:  # noqa: BLE001 - the test's verdict
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=flusher),
                       threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            store.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        events = self.BATCHES * self.BATCH
        with CatalogStore.open(path) as reopened:
            assert len(reopened.usage) == events
            assert sum(
                reopened.usage_stats(aid).view_count for aid in ids
            ) == events
            assert reopened.lineage.edge_count == self.EDGES

    @pytest.mark.parametrize(
        "table, write, persisted",
        [
            ("users",
             lambda b: b.put_user(User(id="u2", name="Bo")),
             lambda b: b.get_user("u2") is not None),
            ("teams",
             lambda b: b.put_team(Team(id="t2", name="Two")),
             lambda b: b.get_team("t2") is not None),
            ("meta",
             lambda b: b.set_state("probe", "1"),
             lambda b: b.get_state("probe") == "1"),
        ],
        ids=("users", "teams", "meta"),
    )
    def test_membership_and_state_survive_a_concurrent_flush(
        self, tmp_path, table, write, persisted
    ):
        """Deterministic: the write starts on a second thread from inside
        ``flush``'s own ``executemany`` into *table*, after that batch's
        rows were read and before its dirty set is cleared."""
        path = tmp_path / "catalog.db"
        backend = SqliteBackend(path)
        # Dirty every buffer, so flush reaches each executemany.
        backend.put_user(User(id="u1", name="Ada"))
        backend.put_team(Team(id="t1", name="One"))
        backend.set_state("seed", "1")
        writers: list[threading.Thread] = []

        class HookedConnection:
            def __init__(self, conn):
                self._conn = conn

            def __enter__(self):
                return self._conn.__enter__()

            def __exit__(self, *exc_info):
                return self._conn.__exit__(*exc_info)

            def __getattr__(self, name):
                return getattr(self._conn, name)

            def executemany(self, sql, rows):
                cursor = self._conn.executemany(sql, rows)
                if not writers and sql.startswith(
                    f"INSERT OR REPLACE INTO {table}("
                ):
                    wrote = threading.Event()
                    writer = threading.Thread(
                        target=lambda: (write(backend), wrote.set())
                    )
                    writers.append(writer)
                    writer.start()
                    # Unlocked, the write lands now; locked, it waits
                    # for the flush to finish.
                    wrote.wait(timeout=0.5)
                return cursor

        backend._conn = HookedConnection(backend._conn)
        backend.flush()
        assert len(writers) == 1
        writers[0].join(timeout=30)
        assert not writers[0].is_alive()
        backend.close()
        reopened = SqliteBackend(path)
        try:
            assert persisted(reopened)
        finally:
            reopened.close()
