"""Tests for the shared seeded retry/backoff policy."""

from __future__ import annotations

import pytest

from repro.telemetry.bus import telemetry_session
from repro.util.retry import RetryPolicy


class Flaky:
    """Fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures: int, value: str = "ok") -> None:
        self.failures = failures
        self.value = value
        self.calls = 0

    def __call__(self) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"boom #{self.calls}")
        return self.value


class TestValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)

    def test_rejects_negative_base_delay(self):
        with pytest.raises(ValueError, match="base_delay_s"):
            RetryPolicy(base_delay_s=-1.0)

    def test_rejects_submultiplicative_backoff(self):
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)

    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)


class TestDelays:
    def test_zero_base_never_sleeps(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.0)
        assert list(policy.delays()) == [0.0] * 4

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            attempts=5, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.3
        )
        assert list(policy.delays()) == pytest.approx(
            [0.1, 0.2, 0.3, 0.3]
        )

    def test_jitter_only_shortens(self):
        policy = RetryPolicy(
            attempts=4,
            base_delay_s=0.1,
            multiplier=2.0,
            max_delay_s=1.0,
            jitter=0.5,
            seed=11,
        )
        plain = RetryPolicy(
            attempts=4, base_delay_s=0.1, multiplier=2.0, max_delay_s=1.0
        )
        for jittered, upper in zip(policy.delays(), plain.delays()):
            assert 0.0 < jittered <= upper
            assert jittered >= upper * 0.5  # jitter=0.5 floor

    def test_jitter_is_seed_deterministic(self):
        a = RetryPolicy(attempts=4, base_delay_s=0.1, jitter=0.9, seed=3)
        b = RetryPolicy(attempts=4, base_delay_s=0.1, jitter=0.9, seed=3)
        c = RetryPolicy(attempts=4, base_delay_s=0.1, jitter=0.9, seed=4)
        assert list(a.delays()) == list(b.delays())
        assert list(a.delays()) != list(c.delays())

    def test_salt_varies_the_schedule(self):
        policy = RetryPolicy(
            attempts=4, base_delay_s=0.1, jitter=0.9, seed=3
        )
        assert list(policy.delays("a")) != list(policy.delays("b"))


class TestRun:
    def test_returns_first_success(self):
        fn = Flaky(0)
        assert RetryPolicy(attempts=3).run(fn, retry_on=RuntimeError) == "ok"
        assert fn.calls == 1

    def test_retries_until_success(self):
        fn = Flaky(2)
        assert RetryPolicy(attempts=3).run(fn, retry_on=RuntimeError) == "ok"
        assert fn.calls == 3

    def test_reraises_last_after_exhaustion(self):
        fn = Flaky(5)
        with pytest.raises(RuntimeError, match="boom #3"):
            RetryPolicy(attempts=3).run(fn, retry_on=RuntimeError)
        assert fn.calls == 3

    def test_foreign_exceptions_propagate_immediately(self):
        calls = []

        def fn():
            calls.append(1)
            raise KeyError("not retryable here")

        with pytest.raises(KeyError):
            RetryPolicy(attempts=3).run(fn, retry_on=RuntimeError)
        assert len(calls) == 1

    def test_on_failure_runs_after_every_failure_including_last(self):
        seen = []
        fn = Flaky(5)
        with pytest.raises(RuntimeError):
            RetryPolicy(attempts=3).run(
                fn,
                retry_on=RuntimeError,
                on_failure=lambda attempt, exc: seen.append(
                    (attempt, str(exc))
                ),
            )
        assert seen == [
            (1, "boom #1"),
            (2, "boom #2"),
            (3, "boom #3"),
        ]

    def test_sleeps_the_computed_backoff(self):
        slept = []
        fn = Flaky(2)
        policy = RetryPolicy(
            attempts=3, base_delay_s=0.1, multiplier=2.0, max_delay_s=1.0
        )
        policy.run(fn, retry_on=RuntimeError, sleep=slept.append)
        assert slept == pytest.approx([0.1, 0.2])

    def test_no_sleep_after_final_failure(self):
        slept = []
        fn = Flaky(9)
        with pytest.raises(RuntimeError):
            RetryPolicy(attempts=3, base_delay_s=0.1).run(
                fn, retry_on=RuntimeError, sleep=slept.append
            )
        assert len(slept) == 2  # attempts - 1

    def test_emits_retry_telemetry(self):
        records: list[dict] = []
        sink = type(
            "S",
            (),
            {
                "write": lambda self, r: records.append(r),
                "flush": lambda self: None,
                "close": lambda self: None,
            },
        )()
        with telemetry_session(sink):
            fn = Flaky(2)
            RetryPolicy(attempts=3).run(
                fn, retry_on=RuntimeError, site="unit.test"
            )
        attempts = [
            r for r in records if r.get("name") == "retry.attempt"
        ]
        assert len(attempts) == 2
        assert attempts[0]["attrs"]["site"] == "unit.test"
        assert attempts[0]["attrs"]["attempt"] == 1
        assert attempts[0]["attrs"]["error"] == "RuntimeError"


class TestSingleAttempt:
    """attempts=1 is the degenerate policy: one call, no backoff."""

    def test_failure_calls_once_raises_immediately(self):
        policy = RetryPolicy(attempts=1, base_delay_s=10.0)
        flaky = Flaky(5)
        sleeps: list[float] = []
        with pytest.raises(RuntimeError, match="boom #1"):
            policy.run(
                flaky, retry_on=RuntimeError, sleep=sleeps.append
            )
        assert flaky.calls == 1
        assert sleeps == []

    def test_success_needs_no_schedule(self):
        policy = RetryPolicy(attempts=1, base_delay_s=10.0)
        assert policy.run(Flaky(0), retry_on=RuntimeError) == "ok"
        assert list(policy.delays()) == []

    def test_on_failure_still_fires_for_the_only_attempt(self):
        seen: list[int] = []
        with pytest.raises(RuntimeError):
            RetryPolicy(attempts=1).run(
                Flaky(1),
                retry_on=RuntimeError,
                on_failure=lambda attempt, exc: seen.append(attempt),
            )
        assert seen == [1]


class TestJitterBounds:
    def test_jitter_bounds_hold_across_the_whole_schedule(self):
        """Every jittered delay lands in [det * (1 - jitter), det] -
        the deterministic delay is the worst case, never exceeded,
        and jitter never shortens below its advertised fraction."""
        policy = RetryPolicy(
            attempts=6,
            base_delay_s=0.05,
            multiplier=2.0,
            max_delay_s=0.4,
            jitter=0.5,
            seed=123,
        )
        for salt in ((), ("cap",), ("cap", 7)):
            for failure in range(1, policy.attempts):
                det = min(0.05 * 2.0 ** (failure - 1), 0.4)
                delay = policy.delay_s(failure, *salt)
                assert det * (1.0 - policy.jitter) <= delay <= det

    def test_full_jitter_never_reaches_zero_base(self):
        # jitter=1.0 may shrink a delay towards zero but never below
        policy = RetryPolicy(
            attempts=4, base_delay_s=0.1, jitter=1.0, seed=3
        )
        for failure in range(1, policy.attempts):
            assert 0.0 <= policy.delay_s(failure) <= 0.1 * 2 ** (
                failure - 1
            )


class TestExhaustionChaining:
    def test_reraises_the_exact_last_instance(self):
        flaky = Flaky(10)
        seen: list[BaseException] = []
        with pytest.raises(RuntimeError) as err:
            RetryPolicy(attempts=3).run(
                flaky,
                retry_on=RuntimeError,
                on_failure=lambda attempt, exc: seen.append(exc),
            )
        assert err.value is seen[-1]
        assert str(err.value) == "boom #3"
        assert len(seen) == 3
        assert flaky.calls == 3

    def test_exhaustion_preserves_the_cause_chain(self):
        """A wrapped failure keeps its __cause__ through retry
        exhaustion - the original failure site survives for the
        error report."""

        def wrapped_failure() -> None:
            try:
                raise OSError("root failure")
            except OSError as exc:
                raise RuntimeError("wrapped") from exc

        with pytest.raises(RuntimeError, match="wrapped") as err:
            RetryPolicy(attempts=2).run(
                wrapped_failure, retry_on=RuntimeError
            )
        assert isinstance(err.value.__cause__, OSError)
        assert str(err.value.__cause__) == "root failure"
