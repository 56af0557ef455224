"""The fsynced JSONL journal behind ``repro serve`` and ``sweep --resume``.

:class:`repro.serve.journal.ServeJournal` and
:class:`repro.runner.CheckpointJournal` bind :class:`JsonlJournal` to
their header and record shape.  A file is one header line, then one
record per append; each append opens, writes, flushes and fsyncs, so a
crash loses at most the record being written.  Reading never raises for
bad content: an undecodable line (a torn or garbled write) is logged,
copied to ``<journal>.quarantine`` and skipped, salvaging the rest.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence


class JsonlJournal:
    """One append-only JSONL file bound to a header."""

    def __init__(self, path: os.PathLike, header: Dict[str, Any],
                 required: Sequence[str], logger: logging.Logger) -> None:
        self.path = Path(path)
        self.header = header
        self.required = tuple(required)  # keys a record must carry
        self.logger = logger
        #: Undecodable lines skipped (and quarantined) by the last read.
        self.quarantined = 0

    @property
    def quarantine_path(self) -> Path:
        return self.path.with_name(self.path.name + ".quarantine")

    def records(self) -> Optional[List[Dict[str, Any]]]:
        """Ordered records; ``None`` for a missing, empty or foreign file
        (header undecodable or not matching :attr:`header`)."""
        self.quarantined = 0
        try:
            raw_lines = self.path.read_bytes().splitlines()
        except OSError:
            return None
        header = self._decode(1, raw_lines[0]) if raw_lines else None
        if (not isinstance(header, dict)
                or any(header.get(k) != v for k, v in self.header.items())):
            return None
        records = []
        for number, raw in enumerate(raw_lines[1:], start=2):
            entry = self._decode(number, raw) if raw.strip() else None
            if isinstance(entry, dict) and all(k in entry
                                               for k in self.required):
                records.append(entry)
        return records

    def _decode(self, line_number: int, raw: bytes) -> Any:
        """One line's JSON value; ``None`` after quarantining it."""
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            pass
        self.quarantined += 1
        self.logger.warning(
            "journal %s line %d is not decodable (%d bytes; crash "
            "mid-append?); quarantining to %s and skipping",
            self.path, line_number, len(raw), self.quarantine_path)
        try:
            with open(self.quarantine_path, "ab") as fh:
                fh.write(f"# {self.path} line {line_number}\n".encode()
                         + raw + b"\n")
        except OSError:  # pragma: no cover - quarantine is best-effort
            pass
        return None

    def write(self, record: Dict[str, Any]) -> None:
        """Durably append one record (after the header, on a new file)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists()
        with open(self.path, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write(json.dumps(self.header) + "\n")
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def discard(self) -> None:
        """Delete the journal."""
        try:
            self.path.unlink()
        except OSError:
            pass
