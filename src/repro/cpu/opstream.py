"""Pre-compiled flat op-streams for the batched interpreter.

A :class:`ThreadProgram` is immutable, so the per-op work the scalar
interpreter repeats on every execution — ``isinstance`` dispatch on the
op dataclass, ``resolve_operand`` type tests — can be done once, ahead
of time.  :func:`stream_for` lowers a program into a byte string of
kind codes and two parallel tuples of pre-split arguments (the same
flattening the paper applies to memory accesses: per-item bookkeeping
is hoisted out of the hot loop and amortized over the whole chunk).
Line addresses are not stored: a shift in the loop costs no more than
a lookup, and the stream stays small.

Only the four straight-line kinds get fast-path codes; everything that
can block or synchronize (acquire, barrier, spin, I/O) is marked
``K_SLOW`` and executed by the scalar interpreter, which keeps the
batched loop free of rarely-taken control flow.

``LockRelease`` lowers to a plain store of the literal 0: the scalar
release handler is the store handler with a pre-resolved value, so the
lowering is exact (and keeps releases on the fast path — they are how
workloads hand locks over).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.cpu.isa import (
    Compute,
    Fence,
    Load,
    LockRelease,
    Reg,
    RegPlus,
    Store,
)
from repro.cpu.thread import ThreadProgram

# Op kind codes (parallel `kinds` array).
K_COMPUTE = 0
K_LOAD = 1
K_STORE = 2
K_FENCE = 3
K_SLOW = 4  # acquire / barrier / spin / io: scalar fallback

# Store-value spec codes (first element of a STORE's `operands` entry).
V_LIT = 0  # (V_LIT, value, 0)
V_REG = 1  # (V_REG, reg_name, 0)
V_REGPLUS = 2  # (V_REGPLUS, reg_name, addend)


class OpStream:
    """One program lowered to parallel arrays, for one line geometry."""

    __slots__ = ("length", "line_shift", "kinds", "args", "operands")

    def __init__(
        self,
        length: int,
        line_shift: int,
        kinds: bytes,
        args: Tuple[int, ...],
        operands: tuple,
    ):
        self.length = length
        #: Word address >> line_shift is the line address.
        self.line_shift = line_shift
        #: Kind code per op (K_*), one byte each.
        self.kinds = kinds
        #: COMPUTE: burst count; LOAD/STORE: word address; else 0.
        self.args = args
        #: LOAD: destination register name; STORE: pre-split value spec
        #: (V_* triple); None otherwise.
        self.operands = operands


def _value_spec(value) -> Optional[tuple]:
    """Pre-split store operand (``resolve_operand``), or None if unknown."""
    if isinstance(value, int):
        return (V_LIT, value, 0)
    if isinstance(value, Reg):
        return (V_REG, value.name, 0)
    if isinstance(value, RegPlus):
        return (V_REGPLUS, value.name, value.addend)
    return None


def _lower(program: ThreadProgram, line_shift: int) -> OpStream:
    kinds = bytearray()
    args = []
    operands = []
    kind_ = kinds.append
    arg_ = args.append
    operand_ = operands.append
    for op in program.ops:
        cls = type(op)
        if cls is Compute:
            kind_(K_COMPUTE)
            arg_(op.count)
            operand_(None)
            continue
        if cls is Load:
            kind_(K_LOAD)
            arg_(op.addr)
            operand_(op.reg)
            continue
        vspec = None
        if cls is Store:
            vspec = _value_spec(op.value)  # None: let the scalar path raise
        elif cls is LockRelease:
            vspec = (V_LIT, 0, 0)
        if vspec is not None:
            kind_(K_STORE)
            arg_(op.addr)
            operand_(vspec)
        else:
            kind_(K_FENCE if cls is Fence else K_SLOW)
            arg_(0)
            operand_(None)
    return OpStream(len(kinds), line_shift, bytes(kinds), tuple(args), tuple(operands))


@lru_cache(maxsize=8)
def _empty_stream(line_shift: int) -> OpStream:
    return OpStream(0, line_shift, b"", (), ())


def stream_for(program: ThreadProgram, line_shift: int) -> OpStream:
    """The lowered stream for ``program``, memoized on the program.

    The lowering is pure per ``(program, line_shift)``; the memo lives on
    the (immutable) program object so repeated runs of the same workload
    compile once.  Empty programs (idle processors, one per machine and
    processor) share one stream.
    """
    if not program.ops:
        return _empty_stream(line_shift)
    cache = getattr(program, "_op_stream_cache", None)
    if cache is None:
        cache = {}
        program._op_stream_cache = cache  # type: ignore[attr-defined]
    stream = cache.get(line_shift)
    if stream is None:
        stream = cache[line_shift] = _lower(program, line_shift)
    return stream
