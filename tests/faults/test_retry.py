"""RetryPolicy: validation, backoff schedules, and the retried-send helper."""

from __future__ import annotations

import pytest

from repro.errors import InvalidConfigError, NoHandlerError, PeerOfflineError, TransportError
from repro.faults import NO_RETRY, RetryPolicy, send_with_retry


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.attempts == 3
        assert policy.deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -0.1},
            {"backoff_factor": 0.5},
            {"base_delay": 10.0, "max_delay": 5.0},
            {"deadline": 0.0},
            {"deadline": -3.0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            RetryPolicy(**kwargs)


class TestBackoffSchedule:
    def test_exponential_schedule(self):
        policy = RetryPolicy(attempts=4, base_delay=1.0, backoff_factor=2.0,
                             max_delay=60.0)
        assert policy.schedule() == [1.0, 2.0, 4.0]
        assert policy.total_backoff() == 7.0

    def test_max_delay_caps_schedule(self):
        policy = RetryPolicy(attempts=6, base_delay=1.0, backoff_factor=3.0,
                             max_delay=5.0)
        assert policy.schedule() == [1.0, 3.0, 5.0, 5.0, 5.0]

    def test_delay_before_is_two_based(self):
        policy = RetryPolicy(attempts=3)
        with pytest.raises(ValueError):
            policy.delay_before(1)
        assert policy.delay_before(2) == policy.base_delay

    def test_no_retry_schedule_is_empty(self):
        assert NO_RETRY.schedule() == []
        assert NO_RETRY.total_backoff() == 0.0
        assert NO_RETRY.attempts == 1

    def test_effective_availability(self):
        policy = RetryPolicy(attempts=3)
        assert policy.effective_availability(0.0) == 0.0
        assert policy.effective_availability(1.0) == 1.0
        assert policy.effective_availability(0.5) == pytest.approx(0.875)
        with pytest.raises(ValueError):
            policy.effective_availability(1.5)


class _FlakyTransport:
    """Fails the first *failures* sends, then answers."""

    def __init__(self, failures: int, error=PeerOfflineError(0)):
        self.failures = failures
        self.error = error
        self.sends = 0

    def send(self, message):
        self.sends += 1
        if self.sends <= self.failures:
            raise self.error
        return ("reply", message)


class TestSendWithRetry:
    def test_first_attempt_success_costs_no_backoff(self):
        transport = _FlakyTransport(0)
        outcome = send_with_retry(transport, "msg", RetryPolicy(attempts=3))
        assert outcome.reply == ("reply", "msg")
        assert outcome.attempts == 1
        assert outcome.backoff == 0.0
        assert not outcome.gave_up

    def test_retries_until_success(self):
        transport = _FlakyTransport(2, error=TransportError("lost"))
        policy = RetryPolicy(attempts=4, base_delay=1.0, backoff_factor=2.0,
                             max_delay=60.0)
        outcome = send_with_retry(transport, "msg", policy)
        assert outcome.attempts == 3
        assert outcome.backoff == 3.0  # 1 + 2
        assert not outcome.gave_up

    def test_gives_up_after_attempts_without_raising(self):
        transport = _FlakyTransport(10)
        outcome = send_with_retry(transport, "msg", RetryPolicy(attempts=3))
        assert outcome.reply is None
        assert outcome.gave_up
        assert outcome.attempts == 3
        assert transport.sends == 3

    def test_deadline_forfeits_remaining_attempts(self):
        transport = _FlakyTransport(10)
        policy = RetryPolicy(attempts=5, base_delay=2.0, backoff_factor=2.0,
                             max_delay=60.0, deadline=5.0)
        outcome = send_with_retry(transport, "msg", policy)
        # Backoffs would be 2, 4, 8, ...; 2 fits the deadline, 2+4 does not.
        assert outcome.backoff == 2.0
        assert outcome.attempts == 2
        assert outcome.gave_up

    def test_a_departed_destination_is_never_retried(self):
        """``NoHandlerError`` is a ``TransportError``, but it means GONE."""
        transport = _FlakyTransport(10, error=NoHandlerError(7))
        policy = RetryPolicy(attempts=5, base_delay=1.0)
        outcome = send_with_retry(transport, "msg", policy)
        assert transport.sends == 1
        assert (outcome.reply, outcome.attempts, outcome.backoff) == (None, 1, 0.0)
        assert outcome.gave_up

    def test_a_destination_that_leaves_mid_retry_ends_the_retries(self):
        class Leaving(_FlakyTransport):
            def send(self, message):
                self.error = NoHandlerError(7) if self.sends else PeerOfflineError(7)
                return super().send(message)

        transport = Leaving(10)
        outcome = send_with_retry(transport, "msg", RetryPolicy(attempts=5, base_delay=1.0))
        # Offline once (retryable), then gone: the backoff before the second
        # look is spent, the remaining three attempts are not.
        assert transport.sends == 2
        assert (outcome.attempts, outcome.backoff, outcome.gave_up) == (2, 1.0, True)

    def test_default_policy_is_no_retry(self):
        transport = _FlakyTransport(1)
        outcome = send_with_retry(transport, "msg")
        assert outcome.gave_up
        assert outcome.attempts == 1
