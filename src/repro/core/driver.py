"""The BulkSC processor driver (paper Sections 3, 4.1).

Processors repeatedly — and only — execute chunks, separated by
checkpoints.  Within a chunk every memory access overlaps and reorders
freely: loads gate only their dependent uses (like RC loads) and stores
are completely wait-free (they retire into the chunk's write buffer).
Explicit synchronization inserts no fences: lock acquires and flag spins
execute speculatively inside chunks, and a processor that loses a race is
squashed and replayed by the winner's commit — exactly the paper's
Figure 6 semantics.

The driver owns chunk lifecycle: creation (checkpoint + fresh signature
triple in the BDM), closing (instruction budget, cache-set overflow,
barriers, program end), in-order commit submission, squash-and-replay
(with exponential shrink and pre-arbitration for forward progress), and
the private-data store classification of Section 5.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from repro.core.chunk import Chunk, ChunkState
from repro.core.chunking import ChunkingPolicy
from repro.cpu.checkpoint import Checkpoint
from repro.cpu.driver import DriverState, ProcessorDriver
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
    resolve_operand,
)
from repro.cpu.opstream import (
    K_COMPUTE,
    K_LOAD,
    K_SLOW,
    K_STORE,
    V_LIT,
    V_REGPLUS,
    stream_for,
)
from repro.errors import ConfigError, SimulationError, StarvationError
from repro.interconnect.network import Network
from repro.memory.cache import LineState
from repro.params import PrivateDataMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import Machine

_COMMITTED = ChunkState.COMMITTED
_SQUASHED = ChunkState.SQUASHED
_MODIFIED = LineState.MODIFIED


class BulkSCDriver(ProcessorDriver):
    """Chunked execution under BulkSC."""

    model_name = "BulkSC"

    #: Extra cycles charged when a squash restores the checkpoint
    #: (pipeline refill, like a branch mispredict).
    SQUASH_RESTORE_CYCLES = 17

    def __init__(self, proc: int, thread, machine: "Machine"):
        super().__init__(proc, thread, machine)
        self.coherence = machine.coherence
        self.memory = machine.memory
        self.sync = machine.sync
        self.history = machine.history
        self.address_map = machine.coherence.address_map
        self.address_space = machine.address_space
        self.stats = machine.stats
        self.bdm = machine.bdms[proc]
        self.config = machine.config.bulksc
        self.policy = ChunkingPolicy(self.config)
        self.private_mode = self.config.private_data_mode
        self._chunk_counter = 0
        self._current: Optional[Chunk] = None
        self._commit_fifo: Deque[Chunk] = deque()
        self._arbitrating: Optional[Chunk] = None
        self._holding_reservation = False
        self._barrier_after_chunk: Optional[Chunk] = None
        self._pending_barrier: Optional[Barrier] = None
        self._io_after_chunk: Optional[Chunk] = None
        self._pending_io: Optional[Io] = None
        self._draining_for_finish = False
        # Why execute_op returned False: 'slot' (chunk slots all busy or
        # set overflow), 'spin' (lock/flag held; squash will wake us),
        # 'barrier-gate' (waiting for own commits before arriving), or
        # 'barrier-release' (arrived, waiting for the others).
        self._block_reason: Optional[str] = None
        # Aggregate statistics for Table 3.
        self.squashed_instructions = 0
        self.committed_instructions = 0
        self.chunk_squashes = 0
        self.chunk_commits = 0
        # Starvation watchdog (armed only under fault injection).
        self._starvation_strikes = 0
        self._last_progress_commits = 0
        # Batched interpreter (docs/performance.md).
        mode = os.environ.get("REPRO_INTERPRETER", "").strip() or self.config.interpreter
        if mode not in ("batched", "scalar"):
            raise ConfigError(f"REPRO_INTERPRETER={mode!r} (expected batched|scalar)")
        self._batched = mode == "batched"
        # The Bloom ground-truth mirror; exact signatures are their own.
        signature = self.config.signature
        self._sig_mirror = signature.track_exact and not signature.exact
        # line address -> insert mask for this machine's signatures (a
        # packed Bloom int, or a one-member set for exact signatures; see
        # signatures/exact.py).
        self._mask_memo: dict = {}
        # Hot-line memos: line -> resident CacheLine.  An entry asserts
        # the line is L1-resident with its fetch fast-path guards held
        # and its store/load classification settled for the current chunk:
        # in R (rd), in W or statically-private Wpriv (wr), or statically
        # private and untracked (rd).  A repeat access skips all of that
        # work.  Every action that could falsify an entry clears the memo:
        # the batched loop clears after each scalar call-out (fills evict,
        # chunk switches reset signatures), and remote effects land only
        # through on_incoming_commit / _squash_from, which clear too.
        # Read-disable windows are re-checked per access instead.
        self._rd_ok: dict = {}
        self._wr_ok: dict = {}
        self._stream = None
        self._private_ops = b""
        if self._batched:
            self._stream = stream_for(thread.program, self.address_map.line_shift)
            self._private_ops = self._static_private_flags(self._stream)

    def _static_private_flags(self, stream) -> bytes:
        """Per-op flag: a load/store to statically-private data (5.1).

        Classified once per driver instead of per access.  Regions are
        line-aligned, so the flag is a property of the line: it is looked
        up once per line, and the batched loop's line-keyed memos hold.
        """
        if self.private_mode is not PrivateDataMode.STATIC:
            return bytes(stream.length)
        flags = bytearray(stream.length)
        is_private = self.address_space.is_statically_private
        by_line: dict = {}
        for pc, kind in enumerate(stream.kinds):
            if kind == K_LOAD or kind == K_STORE:
                line = stream.args[pc] >> stream.line_shift
                private = by_line.get(line)
                if private is None:
                    private = by_line[line] = is_private(stream.args[pc], self.proc)
                flags[pc] = private
        return bytes(flags)

    # ==================================================================
    # Starvation watchdog (resilience, fault injection only)
    # ==================================================================
    def start(self) -> None:
        super().start()
        resil = self.config.resilience
        if (
            self.machine.fault_injector.active
            and resil.starvation_watchdog_cycles > 0
        ):
            self.sim.after(
                resil.starvation_watchdog_cycles,
                self._starvation_check,
                label=f"proc{self.proc}.starvation_watchdog",
            )

    def _starvation_check(self) -> None:
        """Escalate a commit-starved processor to pre-arbitration.

        Under fault injection a processor can be denied indefinitely —
        e.g. a storm keeps squashing it, or duplicated W signatures clog
        the arbiter list.  Instead of livelocking until ``max_events``,
        the watchdog reserves the arbiter (the paper's §3.3 forward-
        progress mechanism) and, if even that fails to produce a commit
        for ``starvation_strikes_before_error`` consecutive windows,
        raises a diagnosable :class:`StarvationError`.
        """
        if self.state is DriverState.FINISHED:
            return  # stop rearming; let the queue drain
        resil = self.config.resilience
        has_commit_work = (
            self._arbitrating is not None
            or bool(self._commit_fifo)
            or (self._current is not None and not self._current.is_empty)
        )
        if self.chunk_commits > self._last_progress_commits or not has_commit_work:
            # Progress (or legitimately idle: barrier/spin with nothing to
            # commit — the peers' commit watchdogs cover lost messages).
            self._last_progress_commits = self.chunk_commits
            self._starvation_strikes = 0
        else:
            self._starvation_strikes += 1
            self.stats.bump(f"proc{self.proc}.starvation_strikes")
            if not self._holding_reservation:
                self.stats.bump(f"proc{self.proc}.starvation_escalations")
                self._prearbitrate()
            if self._starvation_strikes >= resil.starvation_strikes_before_error:
                injector = self.machine.fault_injector
                raise StarvationError(
                    f"proc {self.proc} made no commit progress for "
                    f"{self._starvation_strikes} watchdog windows "
                    f"({resil.starvation_watchdog_cycles} cycles each) despite "
                    f"pre-arbitration; injected faults: {injector.summary()}",
                    fault_trace=injector.trace,
                )
        self.sim.after(
            resil.starvation_watchdog_cycles,
            self._starvation_check,
            label=f"proc{self.proc}.starvation_watchdog",
        )

    def force_spurious_squash(self, now: float) -> bool:
        """Fault injection: squash all active chunks as if aliasing hit.

        Returns True when something was actually squashed.  Safe at any
        point: a processor with no active chunks (e.g. parked at a
        barrier with everything committed) is left untouched.
        """
        chain = [c for c in self.bdm.active_chunks() if c.is_active]
        if not chain:
            return False
        self.stats.bump(f"proc{self.proc}.spurious_squashes")
        self._squash_from(min(chain, key=lambda c: c.chunk_id), now)
        return True

    # ==================================================================
    # Chunk lifecycle
    # ==================================================================
    def _active_count(self) -> int:
        return sum(1 for c in self.bdm.active_chunks() if not c.is_done)

    def _ensure_chunk(self) -> bool:
        """Make sure an executing chunk exists; False if no slot is free."""
        if self._current is not None:
            return True
        if self._active_count() >= self.config.chunks_per_processor:
            self.stats.bump(f"proc{self.proc}.chunk_slot_stalls")
            return False
        self._chunk_counter += 1
        r_sig, w_sig, wpriv_sig = self.bdm.new_signature_triple()
        chunk = Chunk(
            chunk_id=self._chunk_counter,
            proc=self.proc,
            checkpoint=Checkpoint.take(self.thread),
            r_sig=r_sig,
            w_sig=w_sig,
            wpriv_sig=wpriv_sig,
            target_instructions=self.policy.target_instructions,
        )
        self.bdm.register_chunk(chunk)
        self._current = chunk
        if self.policy.wants_prearbitration and not self._holding_reservation:
            self._prearbitrate()
        return True

    def _prearbitrate(self) -> None:
        """Forward-progress fallback: reserve the arbiter before executing."""
        if self.machine.arbiter.reserve(self.proc):
            self._holding_reservation = True
            self.policy.prearbitrations += 1
            self.stats.bump(f"proc{self.proc}.prearbitrations")
            # Ask-and-wait round trip before execution may proceed.
            self.coherence.network.control(
                Network.proc(self.proc), Network.arbiter(0)
            )
            self.window.stall_until(
                self.window.now + self.config.commit_arbitration_latency
            )

    def _close_current(self, reason: str) -> None:
        """Complete the executing chunk and queue it for in-order commit."""
        chunk = self._current
        if chunk is None:
            return
        if chunk.is_empty:
            # Nothing happened; recycle the chunk rather than commit air.
            chunk.mark(ChunkState.COMMITTED)
            self.bdm.deregister_chunk(chunk)
            self._current = None
            return
        chunk.mark(ChunkState.COMPLETE)
        chunk.close_reason = reason
        self.stats.bump(f"proc{self.proc}.chunks_closed.{reason}")
        self._current = None
        self._commit_fifo.append(chunk)
        self._try_submit_head()

    def _try_submit_head(self) -> None:
        """Commit requests must be issued in strict per-processor order."""
        if self._arbitrating is not None:
            return
        while self._commit_fifo:
            chunk = self._commit_fifo.popleft()
            if chunk.state is ChunkState.SQUASHED:
                continue
            # Gate: every forward to successor R signatures must be logged
            # before arbitration begins (Section 4.1.2).
            self.bdm.drain_forward_log()
            self._arbitrating = chunk
            self.machine.commit_engine.submit(
                chunk,
                at_time=max(self.window.now, self.sim.now),
                on_committed=self._on_chunk_committed,
                on_granted=self._on_chunk_granted,
            )
            return

    def _on_chunk_granted(self, chunk: Chunk) -> None:
        if self._arbitrating is chunk:
            self._arbitrating = None
        if self._holding_reservation:
            self.machine.arbiter.clear_reservation(self.proc)
            self._holding_reservation = False
        if self.private_mode is PrivateDataMode.DYNAMIC:
            # Commit permission granted on W alone: the Private Buffer
            # entries and Wpriv die here — the writebacks were skipped.
            for line in chunk.private_buffer_lines:
                self.bdm.private_buffer.drop(line)
        self._try_submit_head()

    def _on_chunk_committed(self, chunk: Chunk) -> None:
        self.bdm.deregister_chunk(chunk)
        self.policy.note_commit()
        self.chunk_commits += 1
        self.committed_instructions += chunk.instructions
        self.stats.bump(f"proc{self.proc}.chunk_commits")
        self.stats.distribution(f"proc{self.proc}.read_set").sample(
            len(chunk.true_read_lines)
        )
        self.stats.distribution(f"proc{self.proc}.write_set").sample(
            len(chunk.true_written_lines)
        )
        self.stats.distribution(f"proc{self.proc}.priv_write_set").sample(
            len(chunk.true_private_lines)
        )
        if self._barrier_after_chunk is chunk:
            self._barrier_after_chunk = None
            self._arrive_barrier()
            return
        if self._io_after_chunk is chunk:
            self._io_after_chunk = None
            self._perform_pending_io()
            self.wake_advance(self.sim.now)
            return
        if self.state is DriverState.BLOCKED and self._block_reason == "slot":
            # Waiting on a chunk slot or set-overflow; a slot just freed.
            self.wake_retry(self.sim.now)
        if (
            self._draining_for_finish
            and self.thread.finished
            and self._active_count() == 0
        ):
            self._draining_for_finish = False
            self.complete_finish()

    # ==================================================================
    # Squash and replay
    # ==================================================================
    def on_incoming_commit(
        self, committing_chunk: Chunk, now: float, on_invalidation_list: bool = True
    ) -> None:
        """A remote chunk's W signature arrived: disambiguate + invalidate.

        ``on_invalidation_list`` is False when the directory's sharer
        filter would not have forwarded W here; disambiguation still runs
        (correctness) and a miss is counted (it should never fire —
        validating the paper's claim that the directory filter is safe).
        """
        # Remote commits invalidate L1 lines / directory ownership that
        # the batched interpreter's hot-line memos rely on.
        self._rd_ok.clear()
        self._wr_ok.clear()
        w_commit = committing_chunk.w_sig
        colliding = self.bdm.disambiguate(w_commit)
        if not colliding and not on_invalidation_list:
            # Ground truth said conflict but the signatures disagree —
            # impossible for a superset encoding; squash conservatively.
            colliding = [c for c in self.bdm.active_chunks() if c.is_active]
        if colliding:
            oldest = min(colliding, key=lambda c: c.chunk_id)
            self._squash_from(oldest, now)
        if on_invalidation_list:
            # Bulk-invalidate the stale copies named by W, squash or not.
            __, unnecessary = self.bdm.bulk_invalidate(
                w_commit, committing_chunk.true_written_lines
            )
            self.stats.bump(
                f"proc{self.proc}.extra_cache_invalidations", unnecessary
            )

    def _squash_from(self, oldest: Chunk, now: float) -> None:
        """Squash ``oldest`` and every younger local chunk, then replay."""
        self._rd_ok.clear()
        self._wr_ok.clear()
        chain = [
            c
            for c in self.bdm.active_chunks()
            if c.is_active and c.chunk_id >= oldest.chunk_id
        ]
        if not chain:
            return
        chain.sort(key=lambda c: c.chunk_id)
        for chunk in reversed(chain):
            self.squashed_instructions += chunk.instructions
            self.chunk_squashes += 1
            self.stats.bump(f"proc{self.proc}.chunk_squashes")
            self.stats.bump(
                f"proc{self.proc}.squashed_instructions", chunk.instructions
            )
            # Discard speculatively-written lines from the cache.
            self.bdm.bulk_invalidate(chunk.w_sig, chunk.true_written_lines)
            # Private Buffer pre-images flow back into the cache (the
            # committed image was never disturbed, so values are intact).
            for line in chunk.private_buffer_lines:
                self.bdm.private_buffer.drop(line)
            chunk.squash_count += 1
            chunk.mark(ChunkState.SQUASHED)
            self.bdm.deregister_chunk(chunk)
            if chunk is self._current:
                self._current = None
            if chunk is self._arbitrating:
                self._arbitrating = None
            if chunk is self._barrier_after_chunk:
                self._barrier_after_chunk = None
        self._commit_fifo = deque(
            c for c in self._commit_fifo if c.state is not ChunkState.SQUASHED
        )
        self.policy.note_squash()
        # Restore the oldest squashed chunk's checkpoint and replay.  A
        # stale barrier or I/O op will be re-executed, so forget it.
        self._pending_barrier = None
        self._pending_io = None
        chain[0].checkpoint.restore(self.thread)
        self.window.stall_until(max(now, self.window.now) + self.SQUASH_RESTORE_CYCLES)
        self._draining_for_finish = False
        if self.state is DriverState.BLOCKED:
            if self._block_reason == "barrier-release":
                raise SimulationError(
                    f"proc {self.proc}: squash while waiting for barrier "
                    "release — arrival gate violated"
                )
            self.wake_retry(self.sim.now)
        self._try_submit_head()

    # ==================================================================
    # Op execution
    # ==================================================================
    def _block(self, reason: str) -> bool:
        """Record why execute_op is returning False (for wake routing).

        Blocking on *other processors' progress* ('spin' on a held lock,
        'barrier-release') while holding a pre-arbitration reservation
        would livelock the machine: the lock holder / barrier peers need
        the commit grants this processor is blocking.  Release the
        reservation in those cases; the next squash streak re-acquires it
        if still needed.
        """
        self._block_reason = reason
        if reason in ("spin", "barrier-release") and self._holding_reservation:
            self.machine.arbiter.clear_reservation(self.proc)
            self._holding_reservation = False
            self.stats.bump(f"proc{self.proc}.reservation_yields")
        return False

    def execute_op(self, op: Op) -> bool:
        return self._chunk_ready() and self.dispatch(op)

    def _chunk_ready(self) -> bool:
        """Ensure an executing chunk with room for the next op.

        Closes the current chunk at its size budget.  False (with the
        block reason recorded) when every chunk slot is busy committing.
        """
        self._block_reason = None
        if not self._ensure_chunk():
            return self._block("slot")
        assert self._current is not None
        if self.policy.should_close(self._current.instructions):
            self._close_current("size")
            if not self._ensure_chunk():
                return self._block("slot")
        return True

    def _execute_compute(self, op: Compute) -> bool:
        self.window.retire_compute(op.count)
        self._current.instructions += op.count
        return True

    def _execute_fence(self, op: Fence) -> bool:
        # BulkSC needs no fences: SC comes from chunk serialization.
        self._current.instructions += 1
        return True

    # ==================================================================
    # Batched interpreter (tentpole of docs/performance.md)
    # ==================================================================
    def _run_until(self, batch_end: float) -> None:
        """Execute a pre-compiled op-stream run as one batched step.

        Ops whose effects stay local to the processor run inline: compute
        bursts, fences, and loads/stores that hit in L1 with no coherence
        action and need no store reclassification.  They replicate the
        scalar handlers' observable effects exactly (same counters, same
        cursor arithmetic, same chunk logs) with attribute lookups and
        method dispatch hoisted out of the per-op loop.  Every other op
        (an L1 miss, a read-disable bounce, a first store to a dirty
        committed line, an op that can block or synchronize) goes whole
        to its scalar handler (:meth:`dispatch`), and a chunk boundary to
        :meth:`_chunk_ready`, from a single call-out site: cached
        thread/window/chunk state is synced before the call and
        reloaded after it.

        No simulator events fire inside a batch (commits and squashes are
        delayed events), so state cached in locals cannot be mutated
        behind our back between call-outs.
        """
        if not self._batched:
            super()._run_until(batch_end)
            return
        thread = self.thread
        stream = self._stream
        n = stream.length
        if thread.pc >= n:
            # Nothing left to run (an idle processor's empty program, or a
            # resume at the end): skip the hoisting below.
            thread.finished = True
            self._finish()
            return
        # ---- hoisted state (live objects; mutated in place) ----
        ops = thread.program.ops
        kinds = stream.kinds
        argv = stream.args
        operands = stream.operands
        line_shift = stream.line_shift
        privv = self._private_ops
        window = self.window
        win_deque = window._window
        iwindow = window.config.instruction_window
        per_instr = window._per_instruction
        l1_rt = window._l1_round_trip
        proc = self.proc
        l1 = self.coherence.l1s[proc]
        l1_sets = l1._sets
        set_mask = l1._set_mask
        l1_clock = l1._lru_clock
        mem = self.memory
        mem_words = mem._words
        bdm = self.bdm
        actives = bdm._active_chunks
        policy = self.policy
        mask_memo = self._mask_memo
        mirror = self._sig_mirror
        dir_mask = self.address_map._dir_mask
        dir_peeks = [d.peek for d in self.coherence.directories]
        read_disabled = [db._read_disabled for db in self.machine.dirbdms]
        # Module aliases: an enum member lookup costs several global ones.
        committed = _COMMITTED
        squashed = _SQUASHED
        modified = _MODIFIED
        k_slow = K_SLOW
        k_compute = K_COMPUTE
        k_load = K_LOAD
        k_store = K_STORE
        v_lit = V_LIT
        v_regplus = V_REGPLUS
        rd_ok = self._rd_ok
        wr_ok = self._wr_ok
        while True:
            # ---- cached state: loaded here, synced back at every exit ----
            pc = thread.pc
            retired = thread.retired_instructions
            registers = thread.registers
            cursor = window.retire_cursor
            win_instr = window._window_instructions
            l1_hits = l1.hits
            mem_reads = mem.reads
            chunk = self._current
            target = policy._target
            chunk_instr = target  # no chunk: the first op takes the call-out
            if chunk is not None:
                chunk_instr = chunk.instructions
                cur_wb = chunk.write_buffer
                cur_wb_get = cur_wb.get
                cur_ops_append = chunk.ops.append
            at_end = slow = False
            while True:
                if pc >= n:
                    at_end = True
                    break
                kind = kinds[pc]
                if kind == k_slow or chunk_instr >= target:
                    slow = True
                    break
                if kind == k_compute:
                    cnt = argv[pc]
                    cursor += cnt * per_instr
                elif kind == k_load:
                    addr = argv[pc]
                    line = addr >> line_shift
                    di = line & dir_mask
                    if read_disabled[di]:
                        slow = True
                        break
                    cl = rd_ok.get(line)
                    if cl is None:
                        # First load of the line this chunk: inline only
                        # the interception-free L1 hit.
                        cset = l1_sets.get(line & set_mask)
                        cl = cset.get(line) if cset is not None else None
                        if cl is None:
                            slow = True
                            break
                        entry = dir_peeks[di](line)
                        if not (
                            entry is None
                            or not entry.dirty
                            or entry.owner is None
                            or entry.owner == proc
                        ):
                            slow = True
                            break
                        # R signature + ground truth; statically-private
                        # loads are not tracked.
                        if not privv[pc]:
                            rm = mask_memo.get(line)
                            if rm is None:
                                rm = mask_memo[line] = chunk.r_sig._hash(line)[0]
                            r_sig = chunk.r_sig
                            r_sig._bits |= rm
                            if mirror:
                                r_sig._exact.add(line)
                            chunk.true_read_lines.add(line)
                        rd_ok[line] = cl
                    # Forward from local chunk write buffers, else memory.
                    value = cur_wb_get(addr)
                    if value is None:
                        if len(actives) == 1:
                            mem_reads += 1
                            value = mem_words.get(addr, 0)
                        else:
                            source = None
                            for c in reversed(actives):
                                st = c.state
                                if st is committed or st is squashed:
                                    continue
                                v = c.write_buffer.get(addr)
                                if v is not None:
                                    value = v
                                    source = c
                                    break
                            if source is None:
                                mem_reads += 1
                                value = mem_words.get(addr, 0)
                            elif source is not chunk:
                                bdm.log_forward(line, chunk.chunk_id)
                    cl.lru_stamp = next(l1_clock)
                    l1_hits += 1
                    # Blocking retire at L1 latency (retire_memory hit path,
                    # decode_time in its O(1) oldest-entry form).
                    if win_instr < iwindow:
                        completion = l1_rt
                    else:
                        rt0, c0 = win_deque[0]
                        fetch_start = rt0 - (iwindow - (win_instr - c0)) * per_instr
                        if fetch_start < 0.0:
                            fetch_start = 0.0
                        completion = fetch_start + l1_rt
                    pipeline = cursor + per_instr
                    cursor = completion if completion > pipeline else pipeline
                    registers[operands[pc]] = value
                    cur_ops_append((False, addr, value, pc))
                    cnt = 1
                elif kind == k_store:
                    addr = argv[pc]
                    line = addr >> line_shift
                    di = line & dir_mask
                    if read_disabled[di]:
                        slow = True
                        break
                    # Store value (resolve_operand, pre-split); an
                    # unresolvable operand raises from the scalar handler.
                    vs = operands[pc]
                    if vs[0] == v_lit:
                        value = vs[1]
                    else:
                        value = registers.get(vs[1])
                        if value is None:
                            slow = True
                            break
                        if vs[0] == v_regplus:
                            value += vs[2]
                    cl = wr_ok.get(line)
                    if cl is None:
                        # Classify into Wpriv (statically private) or W
                        # while inlining only the interception-free L1 hit.
                        cset = l1_sets.get(line & set_mask)
                        cl = cset.get(line) if cset is not None else None
                        if cl is None:
                            slow = True
                            break
                        entry = dir_peeks[di](line)
                        if not (
                            entry is None
                            or not entry.dirty
                            or entry.owner is None
                            or entry.owner == proc
                        ):
                            slow = True
                            break
                        rm = mask_memo.get(line)
                        if rm is None:
                            rm = mask_memo[line] = chunk.r_sig._hash(line)[0]
                        if privv[pc]:
                            wpriv_sig = chunk.wpriv_sig
                            wpriv_sig._bits |= rm
                            if mirror:
                                wpriv_sig._exact.add(line)
                            chunk.true_private_lines.add(line)
                            wr_ok[line] = cl
                        elif cl.state is not modified or (
                            chunk.w_sig._bits & rm
                        ) == rm:
                            w_sig = chunk.w_sig
                            w_sig._bits |= rm
                            if mirror:
                                w_sig._exact.add(line)
                            chunk.true_written_lines.add(line)
                            wr_ok[line] = cl
                        elif line not in chunk.true_private_lines:
                            # Dirty and not yet speculatively written:
                            # private buffering or eager writeback.
                            slow = True
                            break
                        # Else a settled dynamically-private repeat: Wpriv
                        # holds the line; not memoized, since a store to
                        # an aliasing line can set its W mask.
                    cl.lru_stamp = next(l1_clock)
                    l1_hits += 1
                    # Stores retire wait-free (non-blocking).
                    cursor += per_instr
                    cur_wb[addr] = value
                    cur_ops_append((True, addr, value, pc))
                    cnt = 1
                else:
                    # K_FENCE: BulkSC needs no fence work, just accounting.
                    chunk_instr += 1
                    retired += 1
                    pc += 1
                    if cursor >= batch_end:
                        break
                    continue
                win_deque.append((cursor, cnt))
                win_instr += cnt
                while win_deque and win_instr - win_deque[0][1] >= iwindow:
                    win_instr -= win_deque.popleft()[1]
                chunk_instr += cnt
                retired += cnt
                pc += 1
                if cursor >= batch_end:
                    break
            thread.pc = pc
            thread.retired_instructions = retired
            thread.finished = pc >= n
            window.retire_cursor = cursor
            window._window_instructions = win_instr
            l1.hits = l1_hits
            mem.reads = mem_reads
            if chunk is not None:
                chunk.instructions = chunk_instr
            if at_end:
                self._finish()
                return
            if not slow:
                return  # batch budget exhausted: yield to the event loop
            # The scalar call-out.  Fills evict and chunk switches reset
            # signatures, so the hot-line memos start over.
            rd_ok.clear()
            wr_ok.clear()
            if chunk_instr >= target:
                # Chunk boundary: open the next chunk, then run the op
                # itself inline.
                if not self._chunk_ready():
                    self.state = DriverState.BLOCKED
                    return
                continue
            # The chunk is ready (boundaries were handled above), so the op
            # goes straight to its handler.
            if not self.dispatch(ops[pc]):
                self.state = DriverState.BLOCKED
                return
            thread.advance()
            if window.retire_cursor >= batch_end:
                return

    # ------------------------------------------------------------------
    def _check_overflow(self, line: int) -> bool:
        """Close the chunk if fetching ``line`` would overflow a set.

        Returns False when execution must block (pinned lines from
        still-committing chunks occupy the whole set).
        """
        if not self.coherence.would_overflow_l1(self.proc, line, self.bdm.pinned):
            return True
        self._close_current("overflow")
        self.stats.bump(f"proc{self.proc}.overflow_closes")
        if not self._ensure_chunk():
            self._block("slot")
            return False
        if self.coherence.would_overflow_l1(self.proc, line, self.bdm.pinned):
            # Still pinned by committing chunks; wait for a commit.
            self._block("slot")
            return False
        return True

    def _resolve_value(self, word_addr: int):
        """Read through local chunk buffers (forwarding) then memory."""
        chunks = self.bdm.active_chunks()
        for chunk in reversed(chunks):
            if chunk.is_done:
                continue
            value = chunk.local_value(word_addr)
            if value is not None:
                return value, chunk
        return self.memory.read(word_addr), None

    def _is_static_private(self, word_addr: int) -> bool:
        return (
            self.private_mode is PrivateDataMode.STATIC
            and self.address_space.is_statically_private(word_addr, self.proc)
        )

    # ------------------------------------------------------------------
    def _execute_load(self, op: Load) -> bool:
        line = self.address_map.line_of(op.addr)
        if not self._check_overflow(line):
            return False
        chunk = self._current
        assert chunk is not None
        if not self._is_static_private(op.addr):
            chunk.r_sig.insert(line)
            chunk.true_read_lines.add(line)
        value, source = self._resolve_value(op.addr)
        if source is not None and source is not chunk:
            # Cross-chunk forwarding: the successor's R update must land
            # before the predecessor may arbitrate (Section 4.1.2).
            self.bdm.log_forward(line, chunk.chunk_id)
        outcome = self.machine.bulk_fetch(self.proc, line, self.now, self.bdm.pinned)
        self.window.retire_memory(outcome.latency, blocking=True, line_addr=line)
        self.thread.write_register(op.reg, value)
        chunk.note_load(op.addr, value, self.thread.pc)
        chunk.instructions += 1
        return True

    def _execute_store(self, op: Store) -> bool:
        line = self.address_map.line_of(op.addr)
        if not self._check_overflow(line):
            return False
        chunk = self._current
        assert chunk is not None
        value = resolve_operand(op.value, self.thread.registers)
        self._classify_store(chunk, op.addr, line)
        outcome = self.machine.bulk_fetch(self.proc, line, self.now, self.bdm.pinned)
        # Stores are wait-free: they retire from the ROB head even if the
        # line has not arrived (Section 6).
        self.window.retire_memory(outcome.latency, blocking=False, line_addr=line)
        chunk.note_store(op.addr, value, self.thread.pc)
        chunk.instructions += 1
        return True

    def _classify_store(self, chunk: Chunk, word_addr: int, line: int) -> None:
        """Route a store's address into W or Wpriv (Section 5)."""
        if self._is_static_private(word_addr):
            chunk.wpriv_sig.insert(line)
            chunk.true_private_lines.add(line)
            return
        l1_line = self.coherence.l1s[self.proc].probe(line)
        dirty_nonspec = (
            l1_line is not None and l1_line.dirty and not chunk.w_sig.member(line)
        )
        if self.private_mode is PrivateDataMode.DYNAMIC and dirty_nonspec:
            if not chunk.wpriv_sig.member(line):
                # First update in this chunk: park the pre-image.
                pre_image = {
                    w: self.memory.peek(w) for w in self.address_map.words_of_line(line)
                }
                evicted = self.bdm.private_buffer.insert(line, pre_image)
                if evicted is not None:
                    evicted_line, __ = evicted
                    self.coherence.writeback_line(self.proc, evicted_line)
                    chunk.w_sig.insert(evicted_line)
                    chunk.true_written_lines.add(evicted_line)
                    self.stats.bump(f"proc{self.proc}.private_buffer_overflows")
                chunk.private_buffer_lines.add(line)
            chunk.wpriv_sig.insert(line)
            chunk.true_private_lines.add(line)
            return
        if dirty_nonspec:
            # BSCbase: the committed version must reach memory before the
            # line is speculatively overwritten (Section 5.2 prelude).
            self.coherence.writeback_line(self.proc, line)
            self.stats.bump(f"proc{self.proc}.first_write_writebacks")
        chunk.w_sig.insert(line)
        chunk.true_written_lines.add(line)

    # ------------------------------------------------------------------
    # Synchronization inside chunks (Section 3.3)
    # ------------------------------------------------------------------
    def _execute_acquire(self, op: LockAcquire) -> bool:
        line = self.address_map.line_of(op.addr)
        if not self._check_overflow(line):
            return False
        chunk = self._current
        assert chunk is not None
        chunk.r_sig.insert(line)
        chunk.true_read_lines.add(line)
        value, __ = self._resolve_value(op.addr)
        outcome = self.machine.bulk_fetch(self.proc, line, self.now, self.bdm.pinned)
        self.window.retire_memory(
            outcome.latency, blocking=True, instructions=2, line_addr=line
        )
        if value != 0:
            # Lock observed held.  The release (a remote chunk's commit to
            # this line, which is in our R signature) will squash and
            # replay us — the BulkSC spin mechanism.
            self.stats.bump(f"proc{self.proc}.lock_spin_blocks")
            return self._block("spin")
        self._classify_store(chunk, op.addr, line)
        chunk.note_load(op.addr, 0, self.thread.pc)
        chunk.note_store(op.addr, 1, self.thread.pc)
        chunk.instructions += 2
        return True

    def _execute_release(self, op: LockRelease) -> bool:
        line = self.address_map.line_of(op.addr)
        if not self._check_overflow(line):
            return False
        chunk = self._current
        assert chunk is not None
        self._classify_store(chunk, op.addr, line)
        outcome = self.machine.bulk_fetch(self.proc, line, self.now, self.bdm.pinned)
        self.window.retire_memory(outcome.latency, blocking=False, line_addr=line)
        chunk.note_store(op.addr, 0, self.thread.pc)
        chunk.instructions += 1
        return True

    def _execute_spin(self, op: SpinUntil) -> bool:
        line = self.address_map.line_of(op.addr)
        if not self._check_overflow(line):
            return False
        chunk = self._current
        assert chunk is not None
        chunk.r_sig.insert(line)
        chunk.true_read_lines.add(line)
        value, __ = self._resolve_value(op.addr)
        outcome = self.machine.bulk_fetch(self.proc, line, self.now, self.bdm.pinned)
        self.window.retire_memory(outcome.latency, blocking=True, line_addr=line)
        if value != op.value:
            # Wait for the writer's commit to squash us (flag is in R).
            self.stats.bump(f"proc{self.proc}.flag_spin_blocks")
            return self._block("spin")
        chunk.note_load(op.addr, value, self.thread.pc)
        chunk.instructions += 1
        return True

    def _execute_io(self, op: Io) -> bool:
        """I/O cannot be speculative (Section 4.1.3).

        The processor stalls until every in-flight chunk has committed
        (so nothing performed can ever be rolled back), performs the
        operation non-speculatively, and only then starts a new chunk.
        """
        self._pending_io = op
        self._close_current("io")
        pending = [c for c in self.bdm.active_chunks() if not c.is_done]
        if pending:
            self._io_after_chunk = max(pending, key=lambda c: c.chunk_id)
            return self._block("io-gate")
        self._perform_pending_io()
        return True

    def _perform_pending_io(self) -> None:
        op = self._pending_io
        if op is None:
            raise SimulationError(f"proc {self.proc}: I/O completion without op")
        self._pending_io = None
        value = resolve_operand(op.value, self.thread.registers)
        self.window.stall_until(max(self.window.now, self.sim.now) + Io.LATENCY)
        self.machine.perform_io(self.window.now, self.proc, op.device, value)
        self.stats.bump(f"proc{self.proc}.io_ops")

    def _execute_barrier(self, op: Barrier) -> bool:
        """Close the chunk, drain all commits, then arrive.

        Arrival must wait until *every* in-flight chunk has committed:
        an uncommitted chunk could still be squashed, which would replay
        the barrier op and arrive twice.  Chunks commit in order, so
        gating on the youngest pending chunk suffices.
        """
        self._pending_barrier = op
        self._close_current("barrier")
        pending = [c for c in self.bdm.active_chunks() if not c.is_done]
        if pending:
            self._barrier_after_chunk = max(pending, key=lambda c: c.chunk_id)
            return self._block("barrier-gate")  # arrive when it commits
        self._arrive_barrier()
        return self._block("barrier-release")

    def _arrive_barrier(self) -> None:
        op = self._pending_barrier
        if op is None:
            raise SimulationError(f"proc {self.proc}: barrier arrival without op")
        self._pending_barrier = None
        self._block_reason = "barrier-release"
        self.stats.bump(f"proc{self.proc}.barrier_arrivals")
        self.sync.arrive_barrier(
            op.barrier_id, op.participants, self.proc, self._barrier_released
        )

    def _barrier_released(self) -> None:
        self.wake_advance(self.sim.now)

    # ==================================================================
    # Program end: drain in-flight chunks
    # ==================================================================
    def on_program_end(self) -> bool:
        self._close_current("end")
        if self._active_count() == 0:
            return True
        self._draining_for_finish = True
        self._block_reason = "finish"
        return False
