"""Launch ``repro serve`` or ``repro worker`` with the span wrappers on.

    python3 perfbench/launch.py {daemon|worker} SPANS_OUT -- REPRO_ARGS...

Installs the role's wrappers (see :mod:`tracing`), runs the normal
``repro`` CLI entry point with REPRO_ARGS, and writes the recorded spans
to SPANS_OUT when that entry point returns (after its graceful drain).
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    role, out, sep, *repro_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    from common import require_program
    from tracing import INSTALLERS, Tracer

    require_program()
    tracer = Tracer()
    INSTALLERS[role](tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        tracer.dump(Path(out))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
