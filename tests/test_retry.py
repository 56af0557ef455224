"""The one retry schedule (:mod:`repro.retry`).

Retry *n* waits ``min(2.0, 0.2 * 2**(n-1)) * U(0.5, 1.0)`` seconds; a
``Retry-After`` hint replaces the draw, clamped to [0, 30].  The runner,
the serve client and the worker's result post all draw from it, so
these tests pin the schedule once and the callers' tests pin who calls
it.
"""

import random

import pytest

from repro import retry

#: Nominal (pre-jitter) delay of retries 1..8.
NOMINAL = [0.2, 0.4, 0.8, 1.6, 2.0, 2.0, 2.0, 2.0]

#: Retries 1..8 under ``random.Random(42)``.
SEEDED_42 = [0.16394267984578836, 0.20500215104453343, 0.5100117273476478,
             0.9785685905190583, 1.7364712141640124, 1.6766994874229113,
             1.8921795677048454, 1.086938832629416]


@pytest.fixture
def sleeps(monkeypatch):
    recorded = []
    monkeypatch.setattr(retry, "sleep", recorded.append)
    return recorded


class TestSchedule:
    def test_constants(self):
        assert (retry.BASE, retry.CAP, retry.RETRY_AFTER_MAX) == (
            0.2, 2.0, 30.0)

    @pytest.mark.parametrize("attempt", range(1, 11))
    def test_each_delay_lies_in_half_to_full_nominal(self, attempt,
                                                     monkeypatch):
        monkeypatch.setattr(retry, "rng", random.Random(attempt))
        nominal = min(2.0, 0.2 * 2 ** (attempt - 1))
        draws = [retry.delay(attempt) for _ in range(200)]
        assert all(nominal / 2 <= d <= nominal for d in draws)
        # Jitter is real: the draws spread over the band.
        assert max(draws) - min(draws) > nominal / 4

    def test_cap_holds_from_the_fifth_retry_on(self, monkeypatch):
        monkeypatch.setattr(retry, "rng", _Fixed(1.0))
        assert [retry.delay(n) for n in range(1, 9)] == NOMINAL
        assert retry.delay(50) == 2.0
        monkeypatch.setattr(retry, "rng", _Fixed(0.5))
        assert [retry.delay(n) for n in range(1, 9)] == [
            d / 2 for d in NOMINAL]

    def test_seeded_rng_gives_exact_delays(self, monkeypatch, sleeps):
        monkeypatch.setattr(retry, "rng", random.Random(42))
        for attempt in range(1, 9):
            retry.sleep(retry.delay(attempt))
        assert sleeps == SEEDED_42


class TestRetryAfter:
    @pytest.mark.parametrize("hint, expected", [
        (7.0, 7.0), (0.0, 0.0), (-3.0, 0.0), (30.0, 30.0), (31.0, 30.0),
        (3600.0, 30.0)])
    def test_hint_replaces_the_draw_clamped(self, hint, expected):
        for attempt in (1, 5):
            assert retry.delay(attempt, hint) == expected

    def test_hint_consumes_no_draw(self, monkeypatch):
        monkeypatch.setattr(retry, "rng", random.Random(42))
        assert [retry.delay(1, 7.0), retry.delay(1)] == [7.0, SEEDED_42[0]]


class _Fixed:
    """An RNG whose uniform draw is always *value*."""

    def __init__(self, value):
        self.value = value

    def uniform(self, low, high):
        assert (low, high) == (0.5, 1.0)
        return self.value
