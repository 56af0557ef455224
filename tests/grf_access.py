"""Typed operand reads and masked writes on a GRF storage array.

The engines reach a thread's registers through
:func:`repro.eu.grf.operand_plan` and :func:`repro.eu.grf.masked_write`;
these two helpers do the same for tests.
"""

from repro.eu.grf import masked_write, operand_plan


def read(storage, ref, width):
    """A copy of the *width* lanes of operand *ref*."""
    lo, hi, view = operand_plan(ref, width)
    return storage[lo:hi].view(view).copy()


def write(storage, ref, width, values, lane_mask):
    """Store *values* in the lanes of operand *ref* enabled by *lane_mask*."""
    lo, hi, view = operand_plan(ref, width)
    masked_write(storage[lo:hi].view(view), values, lane_mask, width)
