"""The one retry schedule of the runner, the serve client and the worker.

Retry *n* (1-based) waits ``min(CAP, BASE * 2**(n-1))`` seconds scaled
by a uniform draw in [0.5, 1.0], so a fleet does not retry in lockstep.
A daemon's ``Retry-After`` hint replaces the draw, clamped to
[0, RETRY_AFTER_MAX].  The draw depends on *n* alone, so the runner's
pool path can turn a failure into a deadline at once.  Budgets, and
what is worth retrying, stay with the callers.  ``sleep`` and ``rng``
are the test seams: callers look both up here at call time.
"""

from __future__ import annotations

import random
import time
from typing import Optional

BASE = 0.2
CAP = 2.0
RETRY_AFTER_MAX = 30.0

rng = random.Random()
sleep = time.sleep


def delay(attempt: int, retry_after: Optional[float] = None) -> float:
    """Seconds to wait before retry *attempt* (1-based)."""
    if retry_after is not None:
        return min(max(0.0, retry_after), RETRY_AFTER_MAX)
    return min(CAP, BASE * 2 ** (attempt - 1)) * rng.uniform(0.5, 1.0)
