"""Tests for the tuning-service daemon, client, and ConfigSource chain.

Everything here boots the REAL asyncio daemon (on an ephemeral port)
rather than mocking sockets; the network failure modes are driven by
the deterministic ``service.*`` fault sites.  The invariant under
test throughout: every failure degrades to a correct local answer,
recorded as a degradation note - never an error, and never a changed
measurement.
"""

from __future__ import annotations

import json
import logging
import socket

import pytest

from repro.core.history import HistoryStore
from repro.experiments.cache import result_to_json
from repro.experiments.parallel import SweepTask, run_sweep_task
from repro.experiments.runner import ExperimentSetup, run_arcs_offline
from repro.faults.inject import make_injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.spec import crill
from repro.service import protocol
from repro.service import source as source_mod
from repro.service.client import (
    CircuitBreaker,
    ServiceClient,
    ServiceProtocolError,
    ServiceRequestFailed,
    ServiceTimeout,
    ServiceUnavailable,
    parse_address,
)
from repro.service.daemon import ThreadedDaemon
from repro.service.source import (
    ChainedConfigSource,
    ConfigKey,
    MemoSource,
    ServiceSource,
    config_key,
    default_chain,
    entry_to_payload,
    payload_to_entry,
)
from repro.service.store import ServiceStore
from repro.workloads.registry import application_by_name

APP = application_by_name("synthetic", None)


@pytest.fixture(autouse=True)
def clean_process_memo():
    """Isolate the process-wide memo tier: a hit left behind by one
    test must not turn another test's tuning run into a cache hit."""
    source_mod._PROCESS_MEMO.clear()
    yield
    source_mod._PROCESS_MEMO.clear()


@pytest.fixture
def daemon(tmp_path):
    with ThreadedDaemon(tmp_path / "store") as td:
        yield td


def addr_str(td: ThreadedDaemon) -> str:
    host, port = td.address
    return f"{host}:{port}"


def plan_for(site: str, action: str, **kw) -> FaultPlan:
    return FaultPlan(
        specs=(FaultSpec(site=site, action=action, **kw),), seed=5
    )


def free_port() -> int:
    """A port with nothing listening (bound then released)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


_ENTRY_CACHE: list = []


def make_entry():
    """One tuned (key, entry) pair; tuned once, copied per test."""
    if not _ENTRY_CACHE:
        setup = ExperimentSetup(
            spec=crill(), cap_w=85.0, repeats=1, seed=3
        )
        result = run_arcs_offline(APP, setup)
        key = config_key(APP, setup)
        values = {region: None for region in result.chosen_configs}
        _ENTRY_CACHE.append(
            (key, (dict(result.chosen_configs), values))
        )
    key, (configs, values) = _ENTRY_CACHE[0]
    return key, (dict(configs), dict(values))


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self):
        msg = protocol.request("put", key="k", payload={"a": 1})
        assert protocol.decode(protocol.encode(msg)) == msg

    def test_insertion_order_preserved(self):
        # payload key order is part of the determinism contract
        msg = protocol.ok(payload={"z": 1, "a": 2})
        raw = protocol.encode(msg).decode()
        assert raw.index('"z"') < raw.index('"a"')

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode(b"[1,2]\n")

    def test_validate_request_rejects_foreign_schema(self):
        blob = protocol.request("ping")
        blob["schema"] = 99
        with pytest.raises(protocol.ProtocolError, match="schema"):
            protocol.validate_request(blob)

    def test_validate_request_field_checks(self):
        with pytest.raises(protocol.ProtocolError, match="key"):
            protocol.validate_request(
                {"schema": protocol.PROTOCOL_VERSION, "op": "get"}
            )
        with pytest.raises(protocol.ProtocolError, match="payload"):
            protocol.validate_request(
                {
                    "schema": protocol.PROTOCOL_VERSION,
                    "op": "put",
                    "key": "k",
                }
            )

    def test_unknown_op(self):
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.request("steal")


class TestParseAddress:
    def test_host_port_string(self):
        assert parse_address("127.0.0.1:9178") == ("127.0.0.1", 9178)

    def test_tuple_passthrough(self):
        assert parse_address(("h", 1)) == ("h", 1)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_address("9178")


# ---------------------------------------------------------------------------
# daemon + client, clean network
# ---------------------------------------------------------------------------
class TestDaemonClient:
    def test_ping(self, daemon):
        response = ServiceClient(daemon.address).ping()
        assert response["ok"] is True
        assert response["entries"] == 0

    def test_get_put_round_trip(self, daemon):
        client = ServiceClient(daemon.address)
        assert client.get("k") is None
        client.put("k", {"z": 1, "a": {"nested": True}})
        assert client.get("k") == {"z": 1, "a": {"nested": True}}

    def test_many_tenants_share_the_store(self, daemon):
        a = ServiceClient(daemon.address)
        b = ServiceClient(daemon.address)
        a.put("shared", {"v": 42})
        assert b.get("shared") == {"v": 42}

    def test_stats_op(self, daemon):
        client = ServiceClient(daemon.address)
        client.put("k", {"v": 1})
        client.get("k")
        stats = client.stats()
        assert stats["stats"]["puts"] == 1
        assert stats["stats"]["hits"] == 1
        assert stats["requests"] >= 2

    def test_protocol_garbage_drops_only_that_tenant(self, daemon):
        with socket.create_connection(daemon.address, timeout=5) as s:
            s.settimeout(5)
            s.sendall(b"this is not json\n")
            response = json.loads(s.makefile().readline())
            assert response["ok"] is False
            # connection is dropped after the error frame
            assert s.recv(1) == b""
        # other tenants are unaffected
        assert ServiceClient(daemon.address).ping()["ok"] is True

    @pytest.mark.parametrize("literal", [b"NaN", b"-Infinity", b"1e999"])
    def test_non_finite_put_is_refused_and_persistence_survives(
        self, tmp_path, literal
    ):
        """A put whose payload is not strict JSON gets an error reply;
        it never reaches the store, so other tenants' puts still flush
        and the shutdown fsync + compaction still succeed."""
        with ThreadedDaemon(tmp_path / "store") as td:
            with socket.create_connection(td.address, timeout=5) as s:
                s.settimeout(5)
                frame = b'{"schema":%d,"op":"put","key":"bad",' % (
                    protocol.PROTOCOL_VERSION
                )
                s.sendall(frame + b'"payload":{"v":%s}}\n' % literal)
                response = json.loads(s.makefile().readline())
                assert response["ok"] is False
                assert "non-finite" in response["error"]
            client = ServiceClient(td.address)
            client.put("good", {"v": 1.5})
            assert client.get("bad") is None
        with ThreadedDaemon(tmp_path / "store") as td:
            client = ServiceClient(td.address)
            assert client.get("good") == {"v": 1.5}
            assert client.get("bad") is None

    def test_daemon_persists_on_shutdown(self, tmp_path):
        with ThreadedDaemon(tmp_path / "store") as td:
            ServiceClient(td.address).put("k", {"v": 7})
        # fsynced + compacted on shutdown; a new daemon serves it
        with ThreadedDaemon(tmp_path / "store") as td:
            assert ServiceClient(td.address).get("k") == {"v": 7}

    def test_shutdown_op_stops_the_daemon(self, tmp_path):
        with ThreadedDaemon(tmp_path / "store") as td:
            client = ServiceClient(td.address)
            client.put("k", {"v": 1})
            client.shutdown()
            td._thread.join(timeout=10.0)
            assert not td._thread.is_alive()
        # the write-behind buffer was flushed+fsynced before exit
        assert ServiceStore(tmp_path / "store").get("k") == {"v": 1}

    def test_stop_with_open_connection_logs_no_error(
        self, tmp_path, caplog
    ):
        """Stopping under a still-connected client hangs up on it:
        its handler ends on EOF, not cancelled at loop teardown (which
        asyncio reports as an error from the stream callback)."""
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            with ThreadedDaemon(tmp_path / "store") as td:
                client = ServiceClient(td.address)
                client.put("k", {"v": 1})
                assert client.get("k") == {"v": 1}
            assert not td.running
        errors = [
            r for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ]
        assert errors == []


# ---------------------------------------------------------------------------
# client failure modes
# ---------------------------------------------------------------------------
class TestClientFailures:
    def test_real_connection_refused(self):
        client = ServiceClient(
            ("127.0.0.1", free_port()), deadline_s=0.5
        )
        with pytest.raises(ServiceUnavailable):
            client.ping()

    def test_injected_connect_refused(self, daemon):
        client = ServiceClient(
            daemon.address,
            faults=make_injector(
                plan_for("service.connect", "refused"), salt="c"
            ),
        )
        with pytest.raises(ServiceUnavailable, match="injected"):
            client.ping()

    def test_injected_hang_times_out(self, daemon):
        client = ServiceClient(
            daemon.address,
            faults=make_injector(
                plan_for("service.response", "hang"), salt="c"
            ),
        )
        with pytest.raises(ServiceTimeout):
            client.ping()

    def test_injected_slow_response_still_succeeds(self, daemon):
        client = ServiceClient(
            daemon.address,
            faults=make_injector(
                plan_for("service.response", "slow", magnitude=0.01),
                salt="c",
            ),
        )
        assert client.ping()["ok"] is True

    def test_torn_payload_is_protocol_error(self, daemon):
        client = ServiceClient(
            daemon.address,
            faults=make_injector(
                plan_for("service.payload", "torn"), salt="c"
            ),
        )
        with pytest.raises(ServiceProtocolError):
            client.ping()

    def test_corrupt_payload_is_protocol_error(self, daemon):
        client = ServiceClient(
            daemon.address,
            faults=make_injector(
                plan_for("service.payload", "corrupt"), salt="c"
            ),
        )
        with pytest.raises(ServiceProtocolError):
            client.ping()

    def test_server_crash_mid_write(self, tmp_path):
        plan = plan_for("service.server", "crash", max_fires=1)
        with ThreadedDaemon(tmp_path / "store", fault_plan=plan) as td:
            client = ServiceClient(td.address)
            # the first response is severed mid-frame; the bounded
            # retry gets a clean answer on the next attempt.
            assert client.ping()["ok"] is True
            assert td.daemon.injected_crashes == 1

    def test_request_failed_not_retried(self, daemon):
        # a malformed-but-parseable request is answered ok=false; the
        # client must not burn retries on a coherent negative answer
        client = ServiceClient(daemon.address)
        with pytest.raises(ServiceRequestFailed):
            client.request(
                {
                    "schema": protocol.PROTOCOL_VERSION,
                    "op": "get",
                    "key": 7,  # not a string -> daemon rejects
                }
            )

    def test_retries_transient_faults_to_success(self, daemon):
        # exactly one injected failure, then clean: one retry wins
        client = ServiceClient(
            daemon.address,
            faults=make_injector(
                plan_for("service.connect", "refused", max_fires=1),
                salt="c",
            ),
        )
        assert client.ping()["ok"] is True


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_half_opens_on_probe_schedule(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=3)
        breaker.record_failure()
        assert breaker.state == "open"
        assert [breaker.allow() for _ in range(3)] == [
            False,
            False,
            True,
        ]
        assert breaker.state == "half_open"

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure()
        assert breaker.allow()           # probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=3, probe_interval=1)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()           # probe (half-open)
        breaker.record_failure()         # probe fails: reopen at once
        assert breaker.state == "open"
        assert breaker.opens == 2

    def test_half_open_cycle_reopen_then_reclose(self):
        """The full recovery arc: open -> half-open probe fails ->
        re-open -> half-open probe succeeds -> closed, with the skip
        and open counters tracking every transition."""
        breaker = CircuitBreaker(failure_threshold=2, probe_interval=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1

        # first probe window: short-circuit once, then probe
        assert not breaker.allow()
        assert breaker.allow()
        assert breaker.state == "half_open"
        breaker.record_failure()         # sick probe: straight back
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.skipped == 0      # the window restarts

        # second probe window: service recovered
        assert not breaker.allow()
        assert breaker.allow()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0
        assert breaker.allow()           # closed again: no gating

    def test_reclosed_breaker_needs_full_threshold_to_reopen(self):
        """Recovery resets the failure count: after a close, one
        failure must not trip a threshold-2 breaker again."""
        breaker = CircuitBreaker(failure_threshold=2, probe_interval=1)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()           # probe
        breaker.record_success()         # re-close
        breaker.record_failure()         # one fresh failure
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()         # second: trips again
        assert breaker.state == "open"
        assert breaker.opens == 2


# ---------------------------------------------------------------------------
# the ConfigSource chain
# ---------------------------------------------------------------------------
class TestEntryCodec:
    def test_round_trip(self):
        key, entry = make_entry()
        payload = entry_to_payload(key, entry)
        configs, values = payload_to_entry(payload)
        assert configs == entry[0]
        assert values == entry[1]

    def test_rejects_foreign_schema(self):
        key, entry = make_entry()
        payload = entry_to_payload(key, entry)
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            payload_to_entry(payload)

    def test_rejects_empty_regions(self):
        with pytest.raises(ValueError, match="regions"):
            payload_to_entry({"schema": 1, "regions": {}})


class TestConfigKey:
    def test_distinct_contexts_distinct_digests(self):
        a = config_key(
            APP, ExperimentSetup(spec=crill(), cap_w=85.0, seed=3)
        )
        b = config_key(
            APP, ExperimentSetup(spec=crill(), cap_w=70.0, seed=3)
        )
        c = config_key(
            APP, ExperimentSetup(spec=crill(), cap_w=85.0, seed=4)
        )
        assert len({a.digest, b.digest, c.digest}) == 3
        assert a.experiment != b.experiment

    def test_stable_across_calls(self):
        setup = ExperimentSetup(spec=crill(), cap_w=85.0, seed=3)
        assert config_key(APP, setup) == config_key(APP, setup)


class TestChain:
    def test_memo_round_trip(self):
        key, entry = make_entry()
        memo = MemoSource(memo={})
        assert memo.lookup(key) is None
        memo.publish(key, entry)
        assert memo.lookup(key) == entry

    def test_memo_discards_malformed(self):
        key, entry = make_entry()
        memo = MemoSource(memo={key.digest: {"schema": 99}})
        assert memo.lookup(key) is None
        assert memo.notes
        assert key.digest not in memo.memo

    def test_memo_fifo_bound(self):
        memo = MemoSource(memo={}, capacity=2)
        key, entry = make_entry()
        for i in range(3):
            k = ConfigKey(experiment=f"e{i}", digest=f"d{i}")
            memo.publish(k, entry)
        assert len(memo.memo) == 2
        assert "d0" not in memo.memo

    def test_service_tier_round_trip(self, daemon):
        key, entry = make_entry()
        tier = ServiceSource(ServiceClient(daemon.address))
        assert tier.lookup(key) is None
        tier.publish(key, entry)
        assert tier.lookup(key) == entry
        assert tier.drain_notes() == []

    def test_service_tier_failure_is_note_not_error(self):
        tier = ServiceSource(
            ServiceClient(("127.0.0.1", free_port()), deadline_s=0.5)
        )
        key, _ = make_entry()
        assert tier.lookup(key) is None
        notes = tier.drain_notes()
        assert len(notes) == 1
        assert notes[0].startswith("config source service: ")
        assert "ServiceUnavailable" in notes[0]
        assert "fell back" in notes[0]
        # notes carry no address/port (they must be byte-stable
        # across ephemeral ports)
        assert "127.0.0.1" not in notes[0]

    def test_breaker_short_circuits_dead_service(self):
        breaker = CircuitBreaker(failure_threshold=2, probe_interval=50)
        tier = ServiceSource(
            ServiceClient(("127.0.0.1", free_port()), deadline_s=0.5),
            breaker=breaker,
        )
        key, _ = make_entry()
        tier.lookup(key)
        tier.lookup(key)
        assert breaker.state == "open"
        tier.lookup(key)                 # short-circuited, no network
        notes = tier.drain_notes()
        assert any("circuit open" in n for n in notes)

    def test_chain_order_and_promotion(self, daemon):
        key, entry = make_entry()
        service = ServiceSource(ServiceClient(daemon.address))
        memo = MemoSource(memo={})
        chain = ChainedConfigSource([service, memo])
        memo.publish(key, entry)
        # hit lands in the memo tier; the missed service tier above it
        # is re-warmed with the entry
        assert chain.lookup(key) == entry
        assert service.lookup(key) == entry

    def test_chain_falls_through_dead_service_to_memo(self):
        key, entry = make_entry()
        chain = default_chain(
            ("127.0.0.1", free_port()), memo={}, deadline_s=0.5
        )
        chain.publish(key, entry)        # service note, memo stores
        assert chain.lookup(key) == entry
        notes = chain.drain_notes()
        assert any("remote publish failed" in n for n in notes)

    def test_chain_miss_returns_none(self):
        key, _ = make_entry()
        chain = ChainedConfigSource([MemoSource(memo={})])
        assert chain.lookup(key) is None

    def test_default_chain_tiers(self, daemon):
        chain = default_chain(addr_str(daemon), memo={})
        assert [s.name for s in chain.sources] == ["service", "memo"]


# ---------------------------------------------------------------------------
# runner integration: the acceptance criteria
# ---------------------------------------------------------------------------
def offline_setup(fault_plan=None):
    return ExperimentSetup(
        spec=crill(),
        cap_w=85.0,
        repeats=2,
        seed=3,
        fault_plan=fault_plan,
    )


def strip_service_notes(result) -> str:
    blob = result_to_json(result)
    blob["degradations"] = [
        d
        for d in blob["degradations"]
        if not d.startswith("config source ")
    ]
    return json.dumps(blob, sort_keys=True)


class TestRunnerIntegration:
    def test_service_run_byte_identical_and_publishes(self, daemon):
        baseline = run_arcs_offline(APP, offline_setup())
        chain = default_chain(addr_str(daemon), memo={})
        result = run_arcs_offline(APP, offline_setup(), source=chain)
        assert json.dumps(result_to_json(result)) == json.dumps(
            result_to_json(baseline)
        )
        # a second cold client now skips tuning entirely via the hit
        chain2 = default_chain(addr_str(daemon), memo={})
        again = run_arcs_offline(APP, offline_setup(), source=chain2)
        assert again.tuning_runs == 0
        blob_a, blob_b = (
            result_to_json(again),
            result_to_json(baseline),
        )
        blob_a.pop("tuning_runs")
        blob_b.pop("tuning_runs")
        assert json.dumps(blob_a) == json.dumps(blob_b)

    @pytest.mark.parametrize(
        "site, action, magnitude",
        [
            ("service.connect", "refused", None),
            ("service.response", "hang", None),
            ("service.response", "slow", 0.01),
            ("service.payload", "torn", None),
            ("service.payload", "corrupt", None),
            ("service.server", "crash", None),
        ],
    )
    def test_every_fault_degrades_to_local_answer(
        self, tmp_path, site, action, magnitude
    ):
        plan = FaultPlan(
            specs=(
                FaultSpec(site=site, action=action, magnitude=magnitude),
            ),
            seed=5,
        )
        setup = offline_setup(fault_plan=plan)
        # service-less reference under the SAME plan: the service.*
        # sites are simply never drawn without a client, and the plan
        # is part of the config digest, so the two runs share keys.
        baseline = run_arcs_offline(APP, setup)
        with ThreadedDaemon(tmp_path / "store", fault_plan=plan) as td:
            chain = default_chain(
                addr_str(td),
                memo={},
                faults=make_injector(plan, salt="service-client"),
            )
            result = run_arcs_offline(APP, setup, source=chain)
        assert strip_service_notes(result) == strip_service_notes(
            baseline
        )
        assert result.tuning_runs == baseline.tuning_runs

    def test_dead_service_degrades_with_note(self):
        chain = default_chain(
            ("127.0.0.1", free_port()), memo={}, deadline_s=0.5
        )
        baseline = run_arcs_offline(APP, offline_setup())
        result = run_arcs_offline(APP, offline_setup(), source=chain)
        assert strip_service_notes(result) == strip_service_notes(
            baseline
        )
        service_notes = [
            d
            for d in result.degradations
            if d.startswith("config source service")
        ]
        assert service_notes

    def test_replay_controller_pulls_from_chain(self, daemon):
        # seed the service with tuned knowledge
        chain = default_chain(addr_str(daemon), memo={})
        setup = offline_setup()
        run_arcs_offline(APP, setup, source=chain)
        # a replay-mode controller with an EMPTY history resolves the
        # entry through the chain instead of raising HistoryKeyMissing
        from repro.core.controller import ARCS
        from repro.core.history import HistoryKeyMissing, experiment_key
        from repro.experiments.runner import fresh_runtime

        key = experiment_key(
            APP.name, setup.spec.name, setup.cap_w, APP.workload
        )
        with pytest.raises(HistoryKeyMissing):
            ARCS(
                fresh_runtime(setup),
                history=HistoryStore(),
                history_key=key,
                replay=True,
            )
        fresh_chain = default_chain(addr_str(daemon), memo={})
        arcs = ARCS(
            fresh_runtime(setup),
            history=HistoryStore(),
            history_key=key,
            replay=True,
            source=fresh_chain,
            source_key=config_key(APP, setup),
        )
        assert arcs.chosen_configs()


class TestSweepTaskIntegration:
    def test_sweep_task_uses_service(self, tmp_path):
        with ThreadedDaemon(tmp_path / "store") as td:
            setup = ExperimentSetup(
                spec=crill(), cap_w=85.0, repeats=2, seed=3
            )
            task = SweepTask(
                app=APP,
                setup=setup,
                strategy="arcs-offline",
                service=addr_str(td),
            )
            plain = SweepTask(app=APP, setup=setup, strategy="arcs-offline")
            baseline = run_sweep_task(plain)
            first = run_sweep_task(task)
            assert json.dumps(result_to_json(first)) == json.dumps(
                result_to_json(baseline)
            )
            probe = ServiceClient(td.address)
            assert probe.stats()["stats"]["puts"] >= 1

    def test_service_field_not_in_digest(self):
        setup = ExperimentSetup(spec=crill(), cap_w=85.0)
        a = SweepTask(app=APP, setup=setup, strategy="arcs-offline")
        b = SweepTask(
            app=APP,
            setup=setup,
            strategy="arcs-offline",
            service="127.0.0.1:1",
        )
        assert a.run_id() == b.run_id()
