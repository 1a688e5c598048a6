"""Tests for the one durable-log format and every user of it.

``TestCorruptionProperties`` is the log's robustness contract, run
against the three appending users - service-store shards, the sweep
journal (both of its record kinds: sweep cells and ARCS-Online
repeats) and fleet journals: a log truncated or bit-flipped at ANY
byte offset is detected and quarantined, every surviving record comes
back verbatim, nothing is invented, no other log is touched and the
rebuilt log reloads clean.  ``TestWholeFileDamage`` is the contract of
the one store rewritten whole, the tuned history: the same damage
rejects the file outright, and the file is never rewritten in place.
Offsets come from a seeded RNG over many trials (plain pytest, no
hypothesis dependency).
"""

from __future__ import annotations

import json
import random
import re
import zlib

import pytest

from repro.analysis.records import journal_records
from repro.core.history import CorruptHistoryError, HistoryStore
from repro.experiments.cache import result_to_json
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import ParallelSweepExecutor, SweepTask
from repro.experiments.runner import (
    ExperimentSetup,
    SimulatedKill,
    StrategyRunResult,
    run_arcs_online,
)
from repro.fleet.journal import FleetJournal
from repro.machine.spec import crill
from repro.openmp.types import OMPConfig, ScheduleKind
from repro.service.store import ServiceStore
from repro.util.jsonlog import JsonLog, encode
from repro.workloads.synthetic import synthetic_application


def legacy_head_line(header: dict, schema: int) -> bytes:
    """A checksummed ``head`` line, as logs once began with a header
    line of this form."""
    body = b'"schema":%d,"head":%s}' % (
        schema, json.dumps(header, separators=(",", ":")).encode()
    )
    return b'{"crc":"%08x",%s\n' % (zlib.crc32(body), body)


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
# the appending users, each as write(root) -> log files,
# read(root) -> records
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
    journal = SweepJournal.in_dir(root)
    for i in range(12):
        journal.append(f"d{i:02d}", f"cell-{i}", cell(i))
    return [journal.path]


def _sweep_read(root):
    loaded = SweepJournal.in_dir(root).load()
    return {d: result_to_json(r) for d, r in loaded.items()}


def _repeat_write(root):
    journal = SweepJournal.in_dir(root)
    for r in range(12):
        journal.append_repeat(
            "run", r, {"run": {"time_s": 0.5 + r}, "dropouts": r % 3}
        )
    return [journal.path]


def _repeat_read(root):
    # the contiguous prefix of repeats a resumed run would replay
    return dict(enumerate(SweepJournal.in_dir(root).repeats("run")))


def _fleet_write(root):
    journal = FleetJournal(root / "fleet.jsonl")
    for step in range(1, 9):
        journal.append_snapshot(
            "abc", step, {"cells": {"n0": step}, "events": []}
        )
    return [journal.path]


def _fleet_read(root):
    records = FleetJournal(root / "fleet.jsonl").load_records()
    return {r["step"]: r["state"] for r in records}


USERS = {
    "store": (_store_write, _store_read),
    "sweep": (_sweep_write, _sweep_read),
    "repeat": (_repeat_write, _repeat_read),
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
# the store rewritten whole: damage anywhere rejects the file
# ---------------------------------------------------------------------------
def _history_write(path):
    store = HistoryStore(path)
    for i in range(4):
        store.save(
            f"app|crill|{55 + 10 * i}W|B",
            {
                f"r{j}": OMPConfig(2 + j, ScheduleKind.GUIDED, 8)
                for j in range(3)
            },
            {"r0": 0.5 + i},
        )
    return path


def _history_check(path):
    before = path.read_bytes()
    with pytest.raises(CorruptHistoryError) as err:
        HistoryStore(path)
    assert str(path) in str(err.value)
    assert path.read_bytes() == before


WHOLE_FILE_STORES = {
    "history": (_history_write, _history_check),
}


class TestWholeFileDamage:
    @pytest.mark.parametrize("damage", [_truncate, _flip],
                             ids=["truncation", "bit_flip"])
    @pytest.mark.parametrize("store", sorted(WHOLE_FILE_STORES))
    def test_whole_file_damage_at_any_offset(self, tmp_path, store, damage):
        write, check = WHOLE_FILE_STORES[store]
        rng = random.Random(20260808)
        for trial in range(24):
            root = tmp_path / f"t{trial}"
            root.mkdir()
            path = write(root / "store.jsonl")
            path.write_bytes(damage(path.read_bytes(), rng))
            check(path)
            assert not (root / "quarantine").exists()


# ---------------------------------------------------------------------------
# regressions: damage that used to be replayed or spread
# ---------------------------------------------------------------------------
def _tasks(n: int) -> list[SweepTask]:
    app = synthetic_application(timesteps=1, include_tiny=False)
    return [
        SweepTask(
            app=app,
            setup=ExperimentSetup(spec=crill(), cap_w=50.0 + i, repeats=1),
            strategy="default",
        )
        for i in range(n)
    ]


def _fake_cell(task: SweepTask) -> StrategyRunResult:
    return cell(int(task.setup.cap_w))


class TestJournalRegressions:
    def _journaled(self, tmp_path, n):
        tasks = _tasks(n)
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        ParallelSweepExecutor(journal=journal, task_fn=_fake_cell).run(tasks)
        return tasks, journal

    def _resume(self, journal, tasks):
        reran = []

        def counting(task):
            reran.append(task.setup.cap_w)
            return _fake_cell(task)

        results = ParallelSweepExecutor(
            journal=journal, task_fn=counting
        ).run(tasks)
        return reran, results

    def test_flipped_time_digit_is_rejected_not_replayed(self, tmp_path):
        tasks, journal = self._journaled(tmp_path, 3)
        lines = journal.path.read_bytes().splitlines(keepends=True)
        # 12.345678 + 51 = 63.345678: one digit flips, the JSON stays valid
        assert b'"time_s":63.345678' in lines[1]
        lines[1] = lines[1].replace(b'"time_s":63.3', b'"time_s":64.3')
        journal.path.write_bytes(b"".join(lines))

        reran, results = self._resume(journal, tasks)
        assert reran == [51.0]
        assert [r.time_s for r in results] == [
            _fake_cell(t).time_s for t in tasks
        ]

    def test_mid_file_garbage_keeps_cells_on_both_sides(self, tmp_path):
        tasks, journal = self._journaled(tmp_path, 5)
        lines = journal.path.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"crc":"garbage\n'  # cell 2 of 0..4
        journal.path.write_bytes(b"".join(lines))

        reran, _results = self._resume(journal, tasks)
        assert reran == [52.0]
        assert len(journal.load()) == 5


def _edit_value(path, field: str, edit) -> None:
    """Rewrite the one ``"field": <number>`` in ``path`` as
    ``edit(number)``: the file still parses as JSON."""
    pattern = rb'("%s":\s*)([0-9.e+-]+)' % field.encode()
    data = path.read_bytes()
    assert len(re.findall(pattern, data)) == 1
    path.write_bytes(
        re.sub(
            pattern,
            lambda m: m[1] + repr(edit(float(m[2]))).encode(),
            data,
        )
    )


class TestWholeFileRegressions:
    """A flipped value that still parses is rejected, not replayed."""

    def test_cache_time_scaled_tenfold(self, tmp_path):
        (task,) = _tasks(1)
        journal = SweepJournal.in_dir(tmp_path)
        ParallelSweepExecutor(journal=journal, task_fn=_fake_cell).run([task])
        _edit_value(journal.path, "time_s", lambda t: t * 10)
        executor = ParallelSweepExecutor(journal=journal, task_fn=_fake_cell)
        (result,) = executor.run([task])
        assert (executor.hits, executor.misses) == (0, 1)
        assert result == _fake_cell(task)

    def test_history_chunk_edited(self, tmp_path):
        path = tmp_path / "h.jsonl"
        HistoryStore(path).save(
            "k", {"r": OMPConfig(16, ScheduleKind.GUIDED, 8)}
        )
        _edit_value(path, "chunk", lambda c: int(c) + 1)
        _history_check(path)

    def test_checkpoint_clock_doubled(self, tmp_path):
        app = synthetic_application(timesteps=4)
        setup = ExperimentSetup(spec=crill(), cap_w=85.0, repeats=2)
        expected = result_to_json(run_arcs_online(app, setup))
        per_run = app.timesteps * app.calls_per_step()
        ck = tmp_path / "ck.jsonl"
        with pytest.raises(SimulatedKill):
            run_arcs_online(
                app, setup, checkpoint_path=ck, kill_after=per_run + 3
            )
        # the completed repeat's wall time: still parses, no longer
        # verifies, so the repeat is quarantined and re-run
        _edit_value(ck, "time_s", lambda t: t * 2)
        tampered = ck.read_bytes()
        resumed = run_arcs_online(app, setup, checkpoint_path=ck)
        assert result_to_json(resumed) == expected
        assert (tmp_path / "quarantine" / "ck.jsonl.0").read_bytes() == (
            tampered
        )


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

    def test_non_finite_values_are_refused_before_writing(self, tmp_path):
        log = JsonLog(tmp_path / "x.jsonl")
        log.append_records([{"x": 1.0}])
        before = log.path.read_bytes()
        with pytest.raises(ValueError):
            log.append_records([{"x": float("nan")}])
        with pytest.raises(ValueError):
            log.rewrite([{"x": float("inf")}])
        assert log.path.read_bytes() == before

    def test_header_after_the_first_line_is_damage(self, tmp_path):
        log = JsonLog(tmp_path / "x.jsonl")
        log.append_records([{"v": 1}])
        with open(log.path, "ab") as handle:
            handle.write(legacy_head_line({"h": 1}, JsonLog.schema))
        scan = log.scan()
        assert scan.records == [{"v": 1}]
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
        assert not (tmp_path / "quarantine").exists()
