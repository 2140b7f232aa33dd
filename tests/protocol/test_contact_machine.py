"""Unit tests for the shared per-reference contact machine.

:func:`repro.protocol.contact.contact_step` is the single place encoding
"can I reach this reference?" for both drivers; these tests pin its retry,
backoff, deadline, healer and observation semantics by driving the
generator by hand with scripted answers.
"""

from __future__ import annotations

import random

import pytest

from repro.faults import RetryPolicy
from repro.protocol.contact import Context, StepStats, contact_step
from repro.protocol.effects import GONE, OFFLINE, OK, Contact, Record


def drive(gen, answers):
    """Run *gen*, answering Contact effects from the *answers* list.

    Returns (result, effects) where *effects* is every effect yielded.
    """
    answers = list(answers)
    effects = []
    response = None
    while True:
        try:
            effect = gen.send(response)
        except StopIteration as stop:
            return stop.value, effects
        effects.append(effect)
        response = answers.pop(0) if type(effect) is Contact else None


def step(ctx, stats, target=7, level=2):
    return contact_step(ctx, stats, 0, target, level, "payload")


class _RecordingHealer:
    """Scripted healer: evicts after ``evict_on`` consecutive failures."""

    def __init__(self, evict_on=None):
        self.evict_on = evict_on
        self.successes = []
        self.failures = []

    def record_success(self, owner, level, target):
        self.successes.append((owner, level, target))

    def record_failure(self, owner, level, target):
        self.failures.append((owner, level, target))
        return self.evict_on is not None and len(self.failures) >= self.evict_on


class TestBareContact:
    def test_ok_first_try(self):
        stats = StepStats()
        ok, effects = drive(step(Context(random.Random(0)), stats), [OK])
        assert ok is True
        assert [type(e) for e in effects] == [Contact]
        assert effects[0].delay == 0.0
        assert stats.failed == 0 and stats.retry_delay == 0.0

    def test_offline_without_retry_fails_once(self):
        stats = StepStats()
        ok, effects = drive(step(Context(random.Random(0)), stats), [OFFLINE])
        assert ok is False
        assert len(effects) == 1
        assert stats.failed == 1 and stats.retry_delay == 0.0

    def test_gone_fails_immediately_even_with_retry(self):
        retry = RetryPolicy(attempts=5, base_delay=1.0)
        stats = StepStats()
        ok, effects = drive(
            step(Context(random.Random(0), retry=retry), stats), [GONE]
        )
        assert ok is False
        assert len(effects) == 1  # a departed peer is never re-contacted
        assert stats.failed == 1 and stats.retry_delay == 0.0


class TestRetrySemantics:
    def test_backoff_schedule_rides_on_contacts(self):
        retry = RetryPolicy(attempts=3, base_delay=1.0, backoff_factor=2.0)
        stats = StepStats()
        ok, effects = drive(
            step(Context(random.Random(0), retry=retry), stats),
            [OFFLINE, OFFLINE, OFFLINE],
        )
        assert ok is False
        assert [e.delay for e in effects] == [0.0, 1.0, 2.0]
        assert stats.failed == 3
        assert stats.retry_delay == pytest.approx(3.0)

    def test_success_mid_retry(self):
        retry = RetryPolicy(attempts=3, base_delay=1.0)
        healer = _RecordingHealer()
        stats = StepStats()
        ok, effects = drive(
            step(Context(random.Random(0), retry=retry, healer=healer), stats),
            [OFFLINE, OK],
        )
        assert ok is True
        assert len(effects) == 2
        assert stats.failed == 1
        assert stats.retry_delay == pytest.approx(1.0)
        # The caller reports the success: a Fig. 2 hop only once its
        # receiver accepts the prefix it was routed on.
        assert healer.successes == [] and len(healer.failures) == 1

    def test_deadline_cuts_remaining_attempts(self):
        # Backoff schedule 1, 2, 4, ... with deadline 2.5: the third
        # attempt (cumulative 3.0) would overrun, so only two are made.
        retry = RetryPolicy(attempts=5, base_delay=1.0, deadline=2.5)
        stats = StepStats()
        ok, effects = drive(
            step(Context(random.Random(0), retry=retry), stats),
            [OFFLINE] * 5,
        )
        assert ok is False
        assert len(effects) == 2
        assert stats.retry_delay == pytest.approx(1.0)

    def test_deadline_accounts_delay_already_spent(self):
        # The deadline caps *accumulated* backoff per operation: with 1.8
        # units already spent (e.g. by an earlier hop, threaded through
        # the messages' retry_spent field), even the first retry overruns.
        retry = RetryPolicy(attempts=3, base_delay=1.0, deadline=2.5)
        stats = StepStats()
        stats.retry_delay = 1.8
        ok, effects = drive(
            step(Context(random.Random(0), retry=retry), stats), [OFFLINE] * 3
        )
        assert ok is False
        assert len(effects) == 1
        assert stats.retry_delay == pytest.approx(1.8)

    def test_healer_eviction_stops_retrying(self):
        retry = RetryPolicy(attempts=5, base_delay=1.0)
        healer = _RecordingHealer(evict_on=2)
        stats = StepStats()
        ok, effects = drive(
            step(Context(random.Random(0), retry=retry, healer=healer), stats),
            [OFFLINE] * 5,
        )
        assert ok is False
        # The evicted slot no longer exists: no third attempt.
        assert len(effects) == 2
        assert len(healer.failures) == 2


class TestObservation:
    def test_offline_misses_are_recorded_when_observed(self):
        retry = RetryPolicy(attempts=2, base_delay=1.0)
        ctx = Context(random.Random(0), retry=retry, observed=True)
        stats = StepStats()
        ok, effects = drive(step(ctx, stats), [OFFLINE, OFFLINE])
        records = [e for e in effects if type(e) is Record]
        assert ok is False
        assert [r.event for r in records] == ["offline_miss", "offline_miss"]
        assert records[0].args == (0, 7, 2)

    def test_unobserved_path_yields_no_records(self):
        ctx = Context(random.Random(0))
        ok, effects = drive(step(ctx, StepStats()), [OFFLINE])
        assert all(type(e) is Contact for e in effects)
