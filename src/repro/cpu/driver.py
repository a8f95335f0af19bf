"""The abstract per-processor driver.

A driver walks one thread's program, asking its consistency model (the
concrete subclass) to execute each op.  The driver owns the event-loop
mechanics — batching, blocking, wake-ups — so the model subclasses only
implement op semantics.

Execution is batched: one simulator event executes ops until the
retirement cursor has advanced by ``batch_cycles`` (or the driver blocks
or finishes).  Batching keeps the Python event count tractable while
preserving cycle-approximate interleaving: cross-processor interactions
(commits, invalidations, squashes) are separate events that interleave
between batches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Optional, TYPE_CHECKING

from repro.cpu.isa import (
    Barrier,
    Compute,
    Fence,
    Io,
    Load,
    LockAcquire,
    LockRelease,
    Op,
    SpinUntil,
    Store,
)
from repro.cpu.thread import ThreadContext
from repro.cpu.window import RetirementWindow
from repro.errors import ProgramError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine


class DriverState(Enum):
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


#: Op class -> name of the model method that executes it.  Keyed by class,
#: not OpKind: enum members hash through the Python-level Enum.__hash__,
#: a call per lookup.
_HANDLER_NAMES = {
    Compute: "_execute_compute",
    Load: "_execute_load",
    Store: "_execute_store",
    LockAcquire: "_execute_acquire",
    LockRelease: "_execute_release",
    Barrier: "_execute_barrier",
    Fence: "_execute_fence",
    SpinUntil: "_execute_spin",
    Io: "_execute_io",
}


class ProcessorDriver(ABC):
    """Walks one thread's program under a consistency model."""

    #: Cursor advance per event before yielding to the event loop.
    batch_cycles: float = 40.0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The dispatch table, built once per class so that each model's
        # overrides are the handlers it holds.
        cls._handlers = {
            op: getattr(cls, name)
            for op, name in _HANDLER_NAMES.items()
            if hasattr(cls, name)
        }

    def __init__(self, proc: int, thread: ThreadContext, machine: "Machine"):
        self.proc = proc
        self.thread = thread
        self.machine = machine
        self.sim = machine.sim
        self.window = RetirementWindow(
            machine.config.processor, machine.coherence.l1_mshrs[proc]
        )
        self.window.set_l1_round_trip(machine.config.memory.l1.round_trip_cycles)
        self.state = DriverState.RUNNING
        self.finish_time: Optional[float] = None
        self._step_scheduled = False

    # ------------------------------------------------------------------
    # Event-loop mechanics
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first execution batch."""
        self._schedule_step(0.0)

    def _schedule_step(self, at_time: float) -> None:
        if self._step_scheduled:
            return
        self._step_scheduled = True
        when = max(at_time, self.sim.now)
        self.sim.at(when, self._step, label=f"proc{self.proc}.step")

    def _step(self) -> None:
        self._step_scheduled = False
        if self.state is not DriverState.RUNNING:
            return
        self._run_until(self.window.now + self.batch_cycles)
        if self.state is DriverState.RUNNING:
            self._schedule_step(self.window.now)

    def _run_until(self, batch_end: float) -> None:
        """Execute ops until the cursor passes ``batch_end``, blocks, or ends.

        This is the scalar interpreter: one dispatch through
        :meth:`execute_op` per micro-op, indexing the program's op tuple
        directly with :meth:`ThreadContext.advance` inlined.  Models may
        override it with a batched implementation, provided the result is
        bit-identical (same stats, same traces, same blocking points).
        """
        thread = self.thread
        ops = thread.program.ops
        n = len(ops)
        execute = self.execute_op
        window = self.window
        running = DriverState.RUNNING
        while self.state is running:
            pc = thread.pc
            if pc >= n:
                self._finish()
                return
            if not execute(ops[pc]):
                # The model blocked on this op; it will call
                # :meth:`wake_retry` or :meth:`wake_advance` later.
                self.state = DriverState.BLOCKED
                return
            pc = thread.pc
            if pc >= n:
                raise ProgramError(f"proc {self.proc}: advance past program end")
            thread.retired_instructions += ops[pc].instruction_count
            thread.pc = pc = pc + 1
            if pc >= n:
                thread.finished = True
            if window.retire_cursor >= batch_end:
                break

    def _finish(self) -> None:
        if self.state is DriverState.FINISHED:
            return
        if not self.on_program_end():
            # The model still has in-flight state to drain (e.g. BulkSC's
            # final chunk commit); it calls complete_finish() when done.
            self.state = DriverState.BLOCKED
            return
        self.complete_finish()

    def complete_finish(self) -> None:
        """Mark the driver finished; called once all model state drained."""
        if self.state is DriverState.FINISHED:
            return
        self.state = DriverState.FINISHED
        self.finish_time = max(self.window.now, self.sim.now)
        self.machine.driver_finished(self)

    # ------------------------------------------------------------------
    # Wake-ups (called by models / sync callbacks)
    # ------------------------------------------------------------------
    def wake_retry(self, resume_time: Optional[float] = None) -> None:
        """Unblock and *re-execute* the current op (spin retries)."""
        if self.state is DriverState.FINISHED:
            raise SimulationError(f"proc {self.proc}: wake after finish")
        self.state = DriverState.RUNNING
        when = resume_time if resume_time is not None else self.sim.now
        self.window.stall_until(when)
        self._schedule_step(when)

    def wake_advance(self, resume_time: Optional[float] = None) -> None:
        """Unblock, consume the current op, and continue (barrier release)."""
        if self.state is DriverState.FINISHED:
            raise SimulationError(f"proc {self.proc}: wake after finish")
        self.thread.advance()
        self.state = DriverState.RUNNING
        when = resume_time if resume_time is not None else self.sim.now
        self.window.stall_until(when)
        self._schedule_step(when)

    # ------------------------------------------------------------------
    # Model interface
    # ------------------------------------------------------------------
    @abstractmethod
    def execute_op(self, op: Op) -> bool:
        """Execute one op at the current retirement cursor.

        Returns True to consume the op and continue, False to block on it
        (the model must arrange a later wake-up).
        """

    def dispatch(self, op: Op) -> bool:
        """Execute ``op`` with this model's handler for its op class."""
        try:
            handler = self._handlers[type(op)]
        except KeyError:
            raise ProgramError(f"unknown op {op!r}") from None
        return handler(self, op)

    def on_program_end(self) -> bool:
        """Hook: flush model state (store buffers, final chunk commit).

        Returns True when the driver may finish immediately; False when a
        drain is in flight and the model will call :meth:`complete_finish`.
        """
        return True

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.window.retire_cursor
