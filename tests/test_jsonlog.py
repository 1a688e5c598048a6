"""Tests for the one durable-log format and every user of it.

``TestCorruptionProperties`` is the log's robustness contract, run
against all three users - service-store shards, sweep journals and
fleet journals: a log truncated or bit-flipped at ANY byte offset is
detected and quarantined, every surviving record comes back verbatim,
nothing is invented, no other log is touched and the rebuilt log
reloads clean.  Offsets come from a seeded RNG over many trials (plain
pytest, no hypothesis dependency).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.records import fleet_survival_records, journal_records
from repro.experiments.cache import result_to_json
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import ParallelSweepExecutor, SweepTask
from repro.experiments.runner import StrategyRunResult
from repro.fleet.journal import FleetJournal
from repro.machine.spec import crill
from repro.service.store import ServiceStore
from repro.surrogate.corpus import CorpusStats, fold_journal
from repro.util.jsonlog import JsonLog, LogMismatchError, encode
from repro.workloads.synthetic import synthetic_application


def cell(i: int) -> StrategyRunResult:
    return StrategyRunResult(
        strategy="default",
        app_label="sp.B",
        machine="crill",
        cap_w=85.0,
        time_s=12.345678 + i,
        energy_j=None,
        runs=(),
    )


# ---------------------------------------------------------------------------
# the three users, each as write(root) -> log files, read(root) -> records
# ---------------------------------------------------------------------------
def _store_write(root):
    store = ServiceStore(root)
    for i in range(40):
        store.put(f"key-{i:04d}", {"schema": 1, "regions": {f"r{i}": i}})
    store.close()
    return [
        p for p in sorted(root.glob("shard-*.jsonl")) if p.stat().st_size
    ]


def _store_read(root):
    return dict(ServiceStore(root)._entries)


def _sweep_write(root):
    journal = SweepJournal(root / "sweep.jsonl")
    journal.open({"sweep": "abc", "seeds": [0]}, resume=False)
    for i in range(12):
        journal.append(f"d{i:02d}", f"cell-{i}", cell(i))
    return [journal.path]


def _sweep_read(root):
    loaded = SweepJournal(root / "sweep.jsonl").load()
    return {d: result_to_json(r) for d, r in loaded.items()}


def _fleet_write(root):
    journal = FleetJournal(root / "fleet.jsonl")
    journal.open({"plan": "abc", "seed": 1}, resume=False)
    for step in range(1, 9):
        journal.append_snapshot(step, {"cells": {"n0": step}, "events": []})
    return [journal.path]


def _fleet_read(root):
    records = FleetJournal(root / "fleet.jsonl").load_records()
    return {r["step"]: r["state"] for r in records}


USERS = {
    "store": (_store_write, _store_read),
    "sweep": (_sweep_write, _sweep_read),
    "fleet": (_fleet_write, _fleet_read),
}


def _truncate(data: bytes, rng: random.Random) -> bytes:
    # cut inside a line: a cut on a line boundary leaves a shorter but
    # undamaged log, which nothing can (or should) tell from a short run
    while True:
        offset = rng.randrange(1, len(data))
        if data[offset - 1] != ord("\n"):
            return data[:offset]


def _flip(data: bytes, rng: random.Random) -> bytes:
    offset = rng.randrange(len(data))
    bit = 1 << rng.randrange(8)
    return data[:offset] + bytes([data[offset] ^ bit]) + data[offset + 1 :]


class TestCorruptionProperties:
    @pytest.mark.parametrize("user", sorted(USERS))
    @pytest.mark.parametrize("damage", [_truncate, _flip],
                             ids=["truncation", "bit_flip"])
    def test_damage_at_any_offset(self, tmp_path, user, damage):
        write, read = USERS[user]
        rng = random.Random(20260808)
        for trial in range(24):
            root = tmp_path / f"t{trial}"
            root.mkdir()
            logs = write(root)
            expected = read(root)
            victim = rng.choice(logs)
            victim.write_bytes(damage(victim.read_bytes(), rng))
            intact = {p: p.read_bytes() for p in logs if p != victim}

            survived = read(root)
            # 1. detected + quarantined, the original kept for post-mortem
            qdir = root / "quarantine"
            assert [q.name for q in qdir.iterdir()] == [f"{victim.name}.0"]
            # 2. every surviving record verbatim; nothing invented
            for key, value in survived.items():
                assert expected[key] == value
            # 3. other logs untouched, so every loss is the victim's
            for path, data in intact.items():
                assert path.read_bytes() == data
            if user == "store":
                store = ServiceStore(root)
                index = int(victim.stem.split("-")[1])
                assert all(
                    store.shard_index(k) == index
                    for k in set(expected) - set(survived)
                )
            # 4. the rebuilt log reloads clean
            assert read(root) == survived
            assert len(list(qdir.iterdir())) == 1


# ---------------------------------------------------------------------------
# regressions: damage that used to be replayed or spread
# ---------------------------------------------------------------------------
def _tasks(n: int) -> list[SweepTask]:
    app = synthetic_application(timesteps=1, include_tiny=False)
    return [
        SweepTask(app=app, spec=crill(), strategy="default",
                  cap_w=50.0 + i, repeats=1)
        for i in range(n)
    ]


def _fake_cell(task: SweepTask) -> StrategyRunResult:
    return cell(int(task.cap_w))


class TestJournalRegressions:
    def _journaled(self, tmp_path, n):
        tasks = _tasks(n)
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        ParallelSweepExecutor(journal=journal, task_fn=_fake_cell).run(tasks)
        return tasks, journal

    def _resume(self, journal, tasks):
        reran = []

        def counting(task):
            reran.append(task.cap_w)
            return _fake_cell(task)

        results = ParallelSweepExecutor(
            journal=journal, resume=True, task_fn=counting
        ).run(tasks)
        return reran, results

    def test_flipped_time_digit_is_rejected_not_replayed(self, tmp_path):
        tasks, journal = self._journaled(tmp_path, 3)
        lines = journal.path.read_bytes().splitlines(keepends=True)
        # 12.345678 + 51 = 63.345678: one digit flips, the JSON stays valid
        assert b'"time_s":63.345678' in lines[2]
        lines[2] = lines[2].replace(b'"time_s":63.3', b'"time_s":64.3')
        journal.path.write_bytes(b"".join(lines))

        reran, results = self._resume(journal, tasks)
        assert reran == [51.0]
        assert [r.time_s for r in results] == [
            _fake_cell(t).time_s for t in tasks
        ]

    def test_mid_file_garbage_keeps_cells_on_both_sides(self, tmp_path):
        tasks, journal = self._journaled(tmp_path, 5)
        lines = journal.path.read_bytes().splitlines(keepends=True)
        lines[3] = b'{"crc":"garbage\n'  # cell 2 of 0..4
        journal.path.write_bytes(b"".join(lines))

        reran, _results = self._resume(journal, tasks)
        assert reran == [52.0]
        assert len(journal.load()) == 5


# ---------------------------------------------------------------------------
# the header rule, for both journals
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SweepJournal, FleetJournal])
class TestHeaderRule:
    header = {"plan": "abc", "seed": 1}

    def test_missing_or_empty_log_starts_with_its_header(self, tmp_path, cls):
        log = cls(tmp_path / "a.jsonl")
        assert log.open(self.header, resume=True) == []
        assert log.read_header() == self.header
        log = cls(tmp_path / "b.jsonl")
        log.clear()
        assert log.open(self.header, resume=True) == []
        assert log.read_header() == self.header

    def test_headerless_log_is_refused_untouched(self, tmp_path, cls):
        log = cls(tmp_path / "j.jsonl")
        log.append_records([{"step": 1}])
        before = log.path.read_bytes()
        with pytest.raises(
            LogMismatchError, match=r"no \w+ header .*plan, seed"
        ):
            log.open(self.header, resume=True)
        assert log.path.read_bytes() == before

    def test_foreign_header_is_refused_naming_keys(self, tmp_path, cls):
        log = cls(tmp_path / "j.jsonl")
        log.open({"plan": "abc", "seed": 2, "nodes": 4}, resume=False)
        with pytest.raises(
            LogMismatchError, match=r"\(mismatched: nodes, seed\)"
        ):
            log.open(self.header, resume=True)

    def test_foreign_schema_header_is_refused(self, tmp_path, cls):
        log = cls(tmp_path / "j.jsonl")
        log.path.write_bytes(encode(self.header, cls.schema - 1, kind="head"))
        with pytest.raises(LogMismatchError, match="no .* header"):
            log.open(self.header, resume=True)

    def test_matching_header_resumes_and_repairs(self, tmp_path, cls):
        log = cls(tmp_path / "j.jsonl")
        log.open(self.header, resume=False)
        log.append_records([{"step": 1}, {"step": 2}])
        with open(log.path, "ab") as handle:
            handle.write(b'{"crc":"0000')  # torn tail
        assert log.open(self.header, resume=True) == [
            {"step": 1}, {"step": 2}
        ]
        assert log.scan().damaged == 0


class TestFormat:
    def test_checksum_covers_the_bytes_written(self):
        line = encode({"b": 1, "a": [1.5, "x"]}, 3)
        assert line == (
            b'{"crc":"%08x","schema":3,"rec":{"b":1,"a":[1.5,"x"]}}\n'
            % int(line[8:16], 16)
        )

    def test_foreign_lines_are_counted_apart_from_damage(self, tmp_path):
        log = JsonLog(tmp_path / "x.jsonl")
        log.path.write_bytes(
            encode({"v": 1}, JsonLog.schema)
            + encode({"v": 2}, JsonLog.schema + 1)
            + b"not a log line\n"
            + encode({"v": 3}, JsonLog.schema)
        )
        scan = log.scan()
        assert scan.records == [{"v": 1}, {"v": 3}]
        assert (scan.damaged, scan.foreign) == (1, 1)

    def test_header_after_the_first_line_is_damage(self, tmp_path):
        log = JsonLog(tmp_path / "x.jsonl")
        log.append_records([{"v": 1}])
        log.write_header({"h": 1})
        scan = log.scan()
        assert scan.header is None
        assert scan.damaged == 1


# ---------------------------------------------------------------------------
# analysis readers only read
# ---------------------------------------------------------------------------
class TestReadersDoNotWrite:
    def _damage(self, path):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"garbage\n"
        path.write_bytes(b"".join(lines) + b'{"crc":"torn')
        return path.read_bytes()

    def test_sweep_journal_readers(self, tmp_path):
        (path,) = _sweep_write(tmp_path)
        before = self._damage(path)
        rows = journal_records(path)
        assert len(rows) == 11
        assert path.read_bytes() == before
        stats = CorpusStats()
        fold_journal(path, stats)
        assert stats.skipped_damaged == 2
        assert path.read_bytes() == before
        assert not (tmp_path / "quarantine").exists()

    def test_fleet_journal_reader(self, tmp_path):
        journal = FleetJournal(tmp_path / "fleet.jsonl")
        journal.open({"plan": "abc"}, resume=False)
        for step in (1, 2, 3):
            journal.append_snapshot(
                step,
                {"cells": {"n0": {"status": "done"}}, "events": []},
            )
        before = self._damage(journal.path)
        rows = fleet_survival_records(journal.path)
        assert rows[-1]["kind"] == "fleet"
        assert journal.path.read_bytes() == before
        assert not (tmp_path / "quarantine").exists()
