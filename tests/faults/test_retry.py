"""RetryPolicy: validation and backoff schedules.

The retry loop itself is :func:`repro.protocol.contact.contact_step`'s
(``tests/protocol/test_contact_machine.py``; through both node loops,
``tests/protocol/test_node_shells.py``)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidConfigError
from repro.faults import NO_RETRY, RetryPolicy


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
