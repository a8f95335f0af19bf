"""Architectural thread state: program, program counter, registers."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cpu.isa import Barrier, Compute, Op
from repro.errors import ProgramError


class ThreadProgram:
    """An immutable straight-line sequence of micro-ops."""

    def __init__(self, ops: Sequence[Op], name: str = "program"):
        self._ops: Tuple[Op, ...] = tuple(ops)
        self.name = name
        # One pass counts instructions and memory ops and collects the
        # barriers, so workload validation need not re-scan every op.
        instructions = memory_ops = 0
        barriers = []
        for op in self._ops:
            if op.__class__ is Compute:
                instructions += op.count
                continue
            instructions += op.instruction_count
            if op.is_memory:
                memory_ops += 1
            elif isinstance(op, Barrier):
                barriers.append(op)
        self._total_instructions = instructions
        self._memory_ops = memory_ops
        self._barriers: Tuple[Barrier, ...] = tuple(barriers)

    @property
    def ops(self) -> Tuple[Op, ...]:
        """The op sequence, for run loops that index it directly."""
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index: int) -> Op:
        return self._ops[index]

    def __iter__(self):
        return iter(self._ops)

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count (Compute bursts expanded)."""
        return self._total_instructions

    @property
    def memory_op_count(self) -> int:
        return self._memory_ops

    @property
    def barriers(self) -> Tuple[Barrier, ...]:
        """The program's :class:`~repro.cpu.isa.Barrier` ops, in order."""
        return self._barriers

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ThreadProgram {self.name!r} ops={len(self._ops)} "
            f"instructions={self._total_instructions}>"
        )


class ThreadContext:
    """Mutable per-thread execution state."""

    def __init__(self, proc: int, program: ThreadProgram):
        self.proc = proc
        self.program = program
        self.pc = 0
        self.registers: Dict[str, int] = {}
        self.finished = False
        self.retired_instructions = 0

    def current_op(self) -> Optional[Op]:
        ops = self.program._ops
        return ops[self.pc] if self.pc < len(ops) else None

    def advance(self) -> None:
        ops = self.program._ops
        pc = self.pc
        if pc >= len(ops):
            raise ProgramError(f"proc {self.proc}: advance past program end")
        self.retired_instructions += ops[pc].instruction_count
        self.pc = pc = pc + 1
        if pc >= len(ops):
            self.finished = True

    def write_register(self, name: str, value: int) -> None:
        self.registers[name] = value

    def read_register(self, name: str) -> int:
        try:
            return self.registers[name]
        except KeyError:
            raise ProgramError(
                f"proc {self.proc}: read of unwritten register {name!r}"
            ) from None
