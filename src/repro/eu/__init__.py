"""EU (execution unit) model: the multi-threaded SIMD core of the GPU.

Pipeline structure follows paper Section 2.2: per-thread decode and
scoreboard, a rotating dual-issue arbiter (two instructions from
distinct threads every two cycles), 4-wide FPU and EM execution pipes
with multi-cycle SIMD instruction sequencing, a SEND pipe for memory
messages, and a SIMT mask stack for structured control-flow divergence.
"""

from .eu import NEVER, ExecutionUnit
from .grf import RegisterFile
from .interp import execute_alu, gather, scatter
from .maskstack import MaskStack
from .pipes import ExecPipe, PipeSet
from .scoreboard import Scoreboard
from .thread import EUThread, ThreadState

__all__ = [
    "NEVER",
    "EUThread",
    "ExecPipe",
    "ExecutionUnit",
    "MaskStack",
    "PipeSet",
    "RegisterFile",
    "Scoreboard",
    "ThreadState",
    "execute_alu",
    "gather",
    "scatter",
]
