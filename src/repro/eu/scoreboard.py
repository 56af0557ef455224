"""Per-thread dependence scoreboard.

Paper Section 2.2, stage 3: each EU thread checks and sets register
dependencies before its instructions are queued for arbitration.  The
scoreboard tracks, per GRF register and per flag register, the cycle at
which the value in flight becomes available; an instruction is issueable
once every register it reads or writes is available (reads wait for RAW,
writes for WAW/structural write-back).

The rules run inline in the EU's scan: :func:`repro.eu.eu._issue_info`
names the registers and flags an instruction depends on,
:meth:`ExecutionUnit._fetch <repro.eu.eu.ExecutionUnit._fetch>` takes
the readiness max over them, and each issue raises its destinations'
ready cycles to its completion (never lowering them).
"""

from __future__ import annotations

from typing import Dict


class Scoreboard:
    """Register/flag readiness tracking for one EU thread."""

    def __init__(self) -> None:
        #: GRF register -> cycle its in-flight value becomes available.
        self._reg_ready: Dict[int, int] = {}
        #: Flag register index -> cycle its in-flight value is available.
        self._flag_ready: Dict[int, int] = {}
