"""What a workload hands to the runner: a plan of operations.

A workload's ``build(seed, tracer)`` makes every input from the seed and
returns a Plan.  One round runs every op of the plan once, in order; the
runner times ``op.run`` alone, not ``op.after``.  ``op.check`` compares
an output with the oracles and is called on the first round, and
``digest`` must then give the same value on every later round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Failure(Exception):
    """An output that breaks a check."""


def require(cond, what, *args):
    if not cond:
        raise Failure(what % args if args else what)


@dataclass
class Op:
    id: str
    run: object            # run(tracer) -> output
    check: object          # check(output) -> None, raises Failure
    known_fault: str = ""  # non-empty: a program fault this op hits
    after: object = None   # after(tracer, output), untimed harness work


@dataclass
class Plan:
    ops: list
    disks: list = field(default_factory=list)  # for gauge calibration
    cleanup: object = None


def interleave(long_ops, short_ops):
    """long_ops in order, with short_ops spread evenly between them, so
    that the short ops of a round are timed at many moments and not in
    one burst."""
    out = []
    k = len(long_ops)
    for i, op in enumerate(long_ops):
        out.append(op)
        out.extend(short_ops[i * len(short_ops) // k:(i + 1) * len(short_ops) // k])
    return out


def digest(x):
    """A comparable, hashable image of an output, bit-exact for floats."""
    if isinstance(x, np.ndarray):
        return ("nd", x.shape, x.dtype.str, x.tobytes())
    if isinstance(x, float):
        return ("f", x.hex())
    if isinstance(x, (list, tuple)):
        return tuple(digest(v) for v in x)
    return x
