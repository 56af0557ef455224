"""Durable JSONL job journal for the ``repro serve`` daemon.

A binding of :class:`repro.journal.JsonlJournal` (torn lines are
quarantined to ``<journal>.quarantine``) to the job lifecycle:
``submit`` / ``resolve`` / ``cancel`` events, the lease transitions
(``lease`` / ``renew`` / ``expire`` / ``reassign`` / ``fence_reject``)
and fleet-cache ``publish`` events (who stored which content key, with
what digest, via which path), keyed by job id.  A restarted daemon
replays it to recover its job table and its remote workers' in-flight
leases.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Dict, List

from ..journal import JsonlJournal

logger = logging.getLogger("repro.serve.journal")


class ServeJournal(JsonlJournal):
    """Append-only event log of the daemon's job table."""

    SCHEMA = 1
    SERVICE = "repro-serve"

    def __init__(self, path: os.PathLike) -> None:
        super().__init__(path, {"schema": self.SCHEMA,
                                "service": self.SERVICE},
                         required=("event", "id"), logger=logger)

    def load(self) -> List[Dict[str, Any]]:
        """Ordered journal events; ``[]`` for missing/foreign files."""
        return self.records() or []

    def append(self, event: str, job_id: str, **data: Any) -> None:
        """Durably journal one job event."""
        self.write({"event": event, "id": job_id, **data})
