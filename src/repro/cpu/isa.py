"""The micro-op vocabulary for thread programs.

Thread programs are straight-line sequences of micro-ops (loops are
unrolled by the workload generators; spin loops are expressed with the
dedicated :class:`SpinUntil` / :class:`LockAcquire` ops so each
consistency model can implement waiting natively).

Value operands are either literal ints, :class:`Reg` (read a register),
or :class:`RegPlus` (register plus constant — enough to express the
read-modify-write idioms the workloads need, e.g. shared counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Union

from repro.errors import ProgramError


class OpKind(Enum):
    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    ACQUIRE = "acquire"
    RELEASE = "release"
    BARRIER = "barrier"
    FENCE = "fence"
    SPIN_UNTIL = "spin_until"
    IO = "io"


@dataclass(frozen=True)
class Reg:
    """Operand: current value of a register."""

    name: str


@dataclass(frozen=True)
class RegPlus:
    """Operand: register value plus a constant (for increments)."""

    name: str
    addend: int


Operand = Union[int, Reg, RegPlus]


def resolve_operand(operand: Operand, registers: Dict[str, int]) -> int:
    """Evaluate an operand against a register file."""
    if isinstance(operand, int):
        return operand
    if isinstance(operand, Reg):
        try:
            return registers[operand.name]
        except KeyError:
            raise ProgramError(f"read of unwritten register {operand.name!r}") from None
    if isinstance(operand, RegPlus):
        try:
            return registers[operand.name] + operand.addend
        except KeyError:
            raise ProgramError(f"read of unwritten register {operand.name!r}") from None
    raise ProgramError(f"unknown operand {operand!r}")


class Op:
    """Base class for micro-ops; concrete ops are the dataclasses below."""

    __slots__ = ()
    kind: OpKind
    #: Dynamic instructions this micro-op represents (chunk sizing).
    #: Plain class attributes, not properties: run loops read them per op.
    instruction_count = 1
    is_memory = False


@dataclass(frozen=True)
class Load(Op):
    """``reg <- MEM[addr]``."""

    reg: str
    addr: int
    kind = OpKind.LOAD
    is_memory = True


@dataclass(frozen=True)
class Store(Op):
    """``MEM[addr] <- value``."""

    addr: int
    value: Operand
    kind = OpKind.STORE
    is_memory = True


@dataclass(frozen=True)
class Compute(Op):
    """A burst of ``count`` non-memory instructions."""

    count: int
    kind = OpKind.COMPUTE

    @property
    def instruction_count(self) -> int:
        return self.count


@dataclass(frozen=True)
class LockAcquire(Op):
    """Test-and-set acquire of the lock word at ``addr``.

    Semantics: atomically observe 0 and write 1, else wait and retry.
    Counts as two instructions (the load and the conditional store).
    """

    addr: int
    kind = OpKind.ACQUIRE
    is_memory = True
    instruction_count = 2


@dataclass(frozen=True)
class LockRelease(Op):
    """Store 0 to the lock word at ``addr`` (with release semantics)."""

    addr: int
    kind = OpKind.RELEASE
    is_memory = True


@dataclass(frozen=True)
class Barrier(Op):
    """Arrive at barrier ``barrier_id`` and wait for ``participants``."""

    barrier_id: int
    participants: int
    kind = OpKind.BARRIER


@dataclass(frozen=True)
class Fence(Op):
    """A full memory fence (meaningful to RC; SC and BulkSC need none)."""

    kind = OpKind.FENCE


@dataclass(frozen=True)
class SpinUntil(Op):
    """Spin-read ``addr`` until it equals ``value`` (flag synchronization)."""

    addr: int
    value: int
    kind = OpKind.SPIN_UNTIL
    is_memory = True


@dataclass(frozen=True)
class Io(Op):
    """An uncached I/O write to ``device`` (paper Section 4.1.3).

    I/O cannot execute speculatively: under BulkSC the processor stalls
    until the current chunk completes its commit, performs the operation
    non-speculatively, then starts a new chunk.
    """

    device: int
    value: Operand
    kind = OpKind.IO

    #: Cycles to complete the uncached device access.
    LATENCY = 200
