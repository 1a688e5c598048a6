"""Tests for the daemon's sharded, checksummed, LRU knowledge store.

The any-offset corruption properties (a shard truncated or
bit-flipped anywhere is detected, quarantined and rebuilt from its
surviving lines, and no other shard is touched) live in
``tests/test_jsonlog.py``, parametrised over every log user.
"""

from __future__ import annotations

import pytest

from repro.service.store import (
    DEFAULT_WRITE_BEHIND,
    STORE_SCHEMA_VERSION,
    ServiceStore,
)
from repro.util.jsonlog import encode


def payload(i: int) -> dict:
    return {"schema": 1, "regions": {f"r{i}": {"n": i}}}


def filled_store(root, n: int = 40, **kwargs) -> ServiceStore:
    store = ServiceStore(root, **kwargs)
    for i in range(n):
        store.put(f"key-{i:04d}", payload(i))
    store.flush(fsync=True)
    return store


class TestBasics:
    def test_round_trip(self, tmp_path):
        store = ServiceStore(tmp_path / "s")
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}
        assert store.get("missing") is None
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_persists_across_reopen(self, tmp_path):
        store = filled_store(tmp_path / "s", 20)
        store.close()
        again = ServiceStore(tmp_path / "s")
        assert len(again) == 20
        assert again.get("key-0007") == payload(7)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ServiceStore(tmp_path / "a", shards=0)
        with pytest.raises(ValueError, match="capacity"):
            ServiceStore(tmp_path / "b", capacity=0)
        with pytest.raises(ValueError, match="write_behind"):
            ServiceStore(tmp_path / "c", write_behind=0)

    def test_put_after_close_refused(self, tmp_path):
        store = ServiceStore(tmp_path / "s")
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.put("k", {})

    def test_last_write_wins(self, tmp_path):
        store = ServiceStore(tmp_path / "s")
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        store.flush(fsync=True)
        store.close()
        assert ServiceStore(tmp_path / "s").get("k") == {"v": 2}


class TestWriteBehind:
    def test_pending_writes_buffer_until_window(self, tmp_path):
        store = ServiceStore(tmp_path / "s")
        store.put("k", {"v": 1})
        # not yet on disk: a fresh reader sees nothing
        assert len(ServiceStore(tmp_path / "other")) == 0
        shard = store.shard_path(store.shard_index("k"))
        assert not shard.exists()

    def test_auto_flush_at_window(self, tmp_path):
        store = ServiceStore(tmp_path / "s")
        for i in range(DEFAULT_WRITE_BEHIND):
            store.put(f"k{i}", {"v": i})
        assert store.stats.flushes == 1
        assert not store._pending

    def test_close_flushes_everything(self, tmp_path):
        store = ServiceStore(tmp_path / "s")
        store.put("k", {"v": 9})
        store.close()
        assert ServiceStore(tmp_path / "s").get("k") == {"v": 9}

    def test_close_is_idempotent(self, tmp_path):
        store = ServiceStore(tmp_path / "s")
        store.put("k", {"v": 9})
        store.close()
        store.close()


class TestLRU:
    def test_eviction_at_capacity(self, tmp_path):
        store = ServiceStore(tmp_path / "s", capacity=10)
        for i in range(15):
            store.put(f"k{i}", {"v": i})
        assert len(store) == 10
        assert store.stats.evictions == 5
        assert store.get("k0") is None   # oldest evicted
        assert store.get("k14") == {"v": 14}

    def test_get_refreshes_recency(self, tmp_path):
        store = ServiceStore(tmp_path / "s", capacity=3)
        for i in range(3):
            store.put(f"k{i}", {"v": i})
        store.get("k0")                  # touch: k1 is now oldest
        store.put("k3", {"v": 3})
        assert store.get("k0") is not None
        assert store.get("k1") is None

    def test_eviction_survives_reopen_after_compaction(self, tmp_path):
        store = ServiceStore(tmp_path / "s", capacity=5)
        for i in range(9):
            store.put(f"k{i}", {"v": i})
        store.close()                    # flush + compact
        again = ServiceStore(tmp_path / "s", capacity=5)
        assert len(again) == 5
        assert again.get("k0") is None
        assert again.get("k8") == {"v": 8}


class TestCorruptionProperties:
    """Store-specific corruption handling; the any-offset truncation
    and bit-flip properties run for every log user in
    ``tests/test_jsonlog.py``."""

    def test_mid_file_garbage_keeps_lines_on_both_sides(self, tmp_path):
        """Unlike prefix-truncation recovery, per-line checksums also
        salvage valid lines AFTER the corrupt one."""
        root = tmp_path / "s"
        store = ServiceStore(root, shards=1)
        for i in range(10):
            store.put(f"k{i}", {"v": i})
        store.close()
        path = store.shard_path(0)
        lines = path.read_bytes().splitlines()
        lines[4] = b'{"schema": 1, "key": "k4", "garbage'
        path.write_bytes(b"\n".join(lines) + b"\n")

        again = ServiceStore(root, shards=1)
        assert again.stats.quarantined_shards == 1
        assert again.get("k4") is None
        for i in [0, 1, 2, 3, 5, 6, 7, 8, 9]:
            assert again.get(f"k{i}") == {"v": i}

    def test_wrong_schema_line_is_corrupt(self, tmp_path):
        root = tmp_path / "s"
        store = ServiceStore(root, shards=1)
        store.put("k", {"v": 1})
        store.close()
        path = store.shard_path(0)
        line = encode(
            {"key": "alien", "payload": {"v": 2}}, STORE_SCHEMA_VERSION + 1
        )
        with open(path, "ab") as handle:
            handle.write(line)
        again = ServiceStore(root, shards=1)
        assert again.get("alien") is None
        assert again.get("k") == {"v": 1}
        assert again.stats.quarantined_shards == 1

    def test_repeated_corruption_numbers_quarantines(self, tmp_path):
        root = tmp_path / "s"
        path = None
        for expected_n in range(2):
            store = ServiceStore(root, shards=1)
            store.put(f"k{expected_n}", {"v": expected_n})
            store.close()
            path = store.shard_path(0)
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
            again = ServiceStore(root, shards=1)
            again.close()
            names = sorted(
                p.name for p in (root / "quarantine").iterdir()
            )
            assert f"{path.name}.{expected_n}" in names

    def test_stats_surface_salvage_counts(self, tmp_path):
        root = tmp_path / "s"
        store = ServiceStore(root, shards=1)
        for i in range(6):
            store.put(f"k{i}", {"v": i})
        store.close()
        path = store.shard_path(0)
        data = path.read_bytes()
        path.write_bytes(data[:-3])      # torn final line
        again = ServiceStore(root, shards=1)
        assert again.stats.quarantined_shards == 1
        assert again.stats.salvaged_entries == 5
        blob = again.stats_json()
        assert blob["quarantined_shards"] == 1
        assert blob["salvaged_entries"] == 5
