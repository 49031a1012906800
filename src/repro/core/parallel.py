"""Parallel subtree execution: partition the plan trie across processes.

After Algorithm 1 reorders the trial set into a prefix-sharing trie, the
subtrees hanging off each branch point are mutually independent — nothing
requires them to execute on one core (TQSim makes the same observation for
its reuse tree).  This module splits the optimized schedule in two:

* :func:`partition_plan` cuts the trie at a chosen ``depth`` into a
  **prefix program** (the shared work above the cut, executed once by the
  parent) and K independent :class:`SubPlan` tasks.  The prefix program is
  the serial plan with each cut subtree replaced by an :class:`EmitTask`
  pseudo-instruction that serializes the subtree's entry state; each task
  carries its entry layer, entry event history and its own
  Advance/Inject/Snapshot/Restore/Finish schedule (local trial indices).
* :func:`run_parallel` executes the prefix once in the parent, through
  the same depth-first walk as :func:`~repro.core.executor.run_optimized`
  (or :func:`~repro.core.hybrid.run_hybrid`'s Pauli-frame walk with
  ``hybrid=True``; ``EmitTask`` is the only extra instruction), ships
  each entry state to a worker process through
  ``multiprocessing.shared_memory`` (raw complex128 amplitudes — never
  pickled statevectors), runs every sub-plan with the ordinary
  :func:`~repro.core.executor.run_optimized` inside the workers, and
  merges the per-worker results back into exactly the serial outcome.

Determinism
-----------
Task ids are assigned in prefix-emission order, which by construction
equals the serial plan's ``Finish`` order (the prefix walk mirrors the
serial builder's DFS, and a subtree's finishes are contiguous in it).  The
parent therefore replays ``on_finish`` callbacks *in serial order* from
the workers' result buffers after the pool drains — so a seeded
measurement RNG consumes the identical stream and the merged counts are
bit-identical to ``run_optimized`` for any worker count, including 1.
The instruction multiset is also conserved: prefix ops plus the union of
sub-plan ops equal the serial plan's ops, so ``ops_applied`` totals match
exactly (property-tested).

Load balancing assigns tasks to workers with the LPT (longest processing
time first) greedy heuristic, weighted by each sub-plan's statically known
operation count — the same closed form the P-series sanitizer uses.

Fault tolerance
---------------
Tasks are dispatched through a dynamic queue, and every statevector that
crosses shared memory carries a CRC32 checksum
(:func:`~repro.core.cache.payload_checksum`): entry states are summed by
the parent before the fork, re-verified by each worker before use; finish
payloads are summed by the worker after the write, re-verified by the
parent before acceptance (and once more before the merge replay).  A
worker that crashes or blows its per-task deadline (``task_timeout``) is
detected by the parent — exit sentinel plus liveness polling — and its
task is requeued onto surviving workers up to ``retries`` times; when
retries are exhausted or no workers survive, the parent executes the task
itself (inline serial last resort, regenerating entry states from the
prefix if they were corrupted).  Every recovery path re-derives the same
bytes, so counts stay bit-identical to the no-fault run; only successful,
verified task attempts contribute to ``ops_applied`` (rejected attempts
are reported as ``wasted_ops``).  The ``faults`` hook accepts a
deterministic chaos plan (:class:`repro.testing.ChaosPlan`) for testing.

MSV accounting
--------------
A parallel run keeps more statevectors alive than the serial schedule: the
emitted entry snapshots (one per task) plus each worker's own working/
cached states.  :class:`ParallelOutcome` reports the deterministic static
bound ``max(prefix peak incl. emitted entries, num_tasks + sum of each
worker's largest task peak)``; finish-payload buffers are I/O, not
maintained state vectors, and are excluded (as in the serial accounting,
where finish payloads are borrowed or copied out).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue as queue_module
import signal as signal_module
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..sim.statevector import Statevector
from .cache import (
    CacheBudget,
    CacheStats,
    CorruptionError,
    StateCache,
    payload_checksum,
)
from .events import ErrorEvent, Trial
from .executor import (
    ExecutionOutcome,
    FinishCallback,
    RunInterrupted,
    _walk,
    run_optimized,
)
from .resilience import WorkerCrash
from .schedule import (
    Advance,
    EmitTask,
    ExecutionPlan,
    Finish,
    Inject,
    PlanInstruction,
    Restore,
    ScheduleError,
    Snapshot,
    _PlanBuilder,
    count_operations,
    emit_subtree,
    localize_finishes,
)
from .trie import TrialTrie, TrieNode

__all__ = [
    "EmitTask",
    "SubPlan",
    "PlanPartition",
    "ParallelOutcome",
    "partition_plan",
    "run_parallel",
    "fork_available",
    "graceful_stop",
]

#: Exit code a worker uses for an injected (simulated) crash.
_CRASH_EXIT = 73


PrefixInstruction = Union[Advance, Snapshot, Inject, Restore, EmitTask]


class SubPlan:
    """One independent unit of parallel work: a subtree (or terminal tail)
    of the trial trie with its shared-prefix entry context."""

    def __init__(
        self,
        task_id: int,
        entry_layer: int,
        entry_events: Tuple[ErrorEvent, ...],
        plan: ExecutionPlan,
        trial_indices: Tuple[int, ...],
        finishes: Tuple[Tuple[int, ...], ...],
        est_ops: int,
    ) -> None:
        self.task_id = task_id
        #: Layer the entry state has advanced to.
        self.entry_layer = entry_layer
        #: Error events already injected into the entry state, in order.
        self.entry_events = entry_events
        #: Local schedule; ``Finish`` carries *local* trial indices.
        self.plan = plan
        #: Local index -> global (original trial list) index.
        self.trial_indices = trial_indices
        #: Per-``Finish`` global index tuples, in the plan's finish order —
        #: what the parent replays through ``on_finish`` after the merge.
        self.finishes = finishes
        #: Statically known basic-operation count (load-balancing weight).
        self.est_ops = est_ops

    @property
    def num_finishes(self) -> int:
        return len(self.finishes)

    def __repr__(self) -> str:
        return (
            f"SubPlan(task={self.task_id}, entry_layer={self.entry_layer}, "
            f"trials={len(self.trial_indices)}, est_ops={self.est_ops})"
        )


class PlanPartition:
    """A prefix program plus the sub-plan tasks it emits (exact cover)."""

    def __init__(
        self,
        prefix: Tuple[PrefixInstruction, ...],
        tasks: Tuple[SubPlan, ...],
        num_trials: int,
        num_layers: int,
        depth: int,
    ) -> None:
        self.prefix = prefix
        #: Tasks indexed by ``task_id`` == prefix emission order == the
        #: serial plan's finish order (the determinism invariant).
        self.tasks = tasks
        self.num_trials = num_trials
        self.num_layers = num_layers
        self.depth = depth

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def total_finishes(self) -> int:
        return sum(task.num_finishes for task in self.tasks)

    def prefix_operations(self, layered: LayeredCircuit) -> int:
        """Basic operations the parent pays once (prefix Advances+Injects)."""
        return count_operations(self.prefix, layered)

    def planned_operations(self, layered: LayeredCircuit) -> int:
        """Closed-form total ops — equals the serial plan's count exactly."""
        return self.prefix_operations(layered) + sum(
            task.est_ops for task in self.tasks
        )

    def assign(
        self, num_workers: int, weights: Optional[Sequence[int]] = None
    ) -> List[List[int]]:
        """LPT-balance task ids over ``num_workers`` buckets.

        Heaviest task first, each to the least-loaded worker; fully
        deterministic (ties broken by task id, then worker index).  Each
        bucket is returned sorted by task id — execution order within a
        worker does not affect results, only determinism of the trace.

        ``weights`` overrides the default per-task operation counts —
        e.g. the flop weights of a resource certificate
        (:func:`repro.lint.costmodel.build_certificate`), which account
        for kernel kind and fusion, not just gate count.  Must list one
        weight per task.
        """
        if num_workers < 1:
            raise ValueError(f"need at least one worker, got {num_workers}")
        if weights is None:
            weights = [task.est_ops for task in self.tasks]
        elif len(weights) != len(self.tasks):
            raise ValueError(
                f"got {len(weights)} task weight(s) for "
                f"{len(self.tasks)} task(s)"
            )
        loads = [0] * num_workers
        buckets: List[List[int]] = [[] for _ in range(num_workers)]
        order = sorted(
            range(len(self.tasks)),
            key=lambda t: (-weights[t], t),
        )
        for task_id in order:
            worker = min(range(num_workers), key=lambda w: (loads[w], w))
            buckets[worker].append(task_id)
            loads[worker] += max(1, weights[task_id])
        for bucket in buckets:
            bucket.sort()
        return buckets

    def audit(self, trials=None, layered=None):
        """Partition-cover lint (rule P018) without raising."""
        from ..lint.partition_rules import lint_partition

        return lint_partition(self, trials=trials, layered=layered)

    def __repr__(self) -> str:
        return (
            f"PlanPartition(tasks={self.num_tasks}, depth={self.depth}, "
            f"trials={self.num_trials}, prefix={len(self.prefix)} instr)"
        )


class _Partitioner(_PlanBuilder):
    """The serial plan builder's DFS, cut at ``depth``.

    Above the cut it emits exactly the serial instructions.  A subtree at
    the cut, and the terminal tail of a node above it, becomes a task
    instead: its serial instructions are localized into a
    :class:`SubPlan` and the prefix gets an :class:`EmitTask` in their
    place.  The path of injected events to the current node is the
    task's entry history.
    """

    def __init__(
        self, layered: LayeredCircuit, trie: TrialTrie, depth: int
    ) -> None:
        super().__init__(layered, trie)
        self.depth = depth
        self.tasks: List[SubPlan] = []
        self.path: Tuple[ErrorEvent, ...] = ()

    def build(self) -> PlanPartition:
        if self.trie.num_trials == 0:
            raise ScheduleError("cannot partition an empty trial set")
        if self.depth < 1:
            raise ScheduleError(
                f"partition depth must be >= 1, got {self.depth}"
            )
        self._emit_node(self.trie.root, entry_layer=0)
        return PlanPartition(
            prefix=tuple(self.instructions),
            tasks=tuple(self.tasks),
            num_trials=self.trie.num_trials,
            num_layers=self.layered.num_layers,
            depth=self.depth,
        )

    def _emit_node(self, node: TrieNode, entry_layer: int) -> None:
        outer = self.path
        if node.event is not None:
            self.path = outer + (node.event,)
        if node.depth >= self.depth:
            subtree, _ = emit_subtree(self.layered, node, entry_layer)
            self._emit_task(entry_layer, subtree)
        else:
            super()._emit_node(node, entry_layer)
        self.path = outer

    def _emit_terminals(self, node: TrieNode, cursor: int) -> None:
        # The worker advances the entry state to the final layer and
        # finishes, keeping the expensive remaining layers off the parent.
        tail: List[PlanInstruction] = []
        if self.layered.num_layers > cursor:
            tail.append(Advance(cursor, self.layered.num_layers))
        tail.append(Finish(tuple(node.terminal_trials)))
        self._emit_task(cursor, tail)

    def _emit_task(
        self, entry_layer: int, instructions: Sequence[PlanInstruction]
    ) -> None:
        plan, trial_indices, finishes = localize_finishes(
            instructions, self.layered.num_layers
        )
        task = SubPlan(
            task_id=len(self.tasks),
            entry_layer=entry_layer,
            entry_events=self.path,
            plan=plan,
            trial_indices=trial_indices,
            finishes=finishes,
            est_ops=plan.planned_operations(self.layered),
        )
        self.tasks.append(task)
        self.instructions.append(EmitTask(task.task_id))


def partition_plan(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    depth: int = 1,
    check: bool = False,
) -> PlanPartition:
    """Cut the trial trie at ``depth`` into prefix program + sub-plans.

    ``depth=1`` puts every first-error subtree (and the error-free
    terminal tail) in its own task — the natural cut for the paper's
    tries, whose roots fan out widely.  Larger depths produce more,
    smaller tasks (finer load balancing, more entry snapshots to ship).
    With ``check=True`` the partition is audited by lint rule ``P018``
    (disjoint exact cover, consistent entry snapshots, sound sub-plans)
    before being returned.
    """
    trie = TrialTrie(trials)
    partition = _Partitioner(layered, trie, depth).build()
    if check:
        audit = partition.audit(trials=trials, layered=layered)
        if not audit.ok:
            raise ScheduleError(
                "; ".join(str(diagnostic) for diagnostic in audit.errors)
            )
    return partition


class ParallelOutcome(ExecutionOutcome):
    """Merged counters of a parallel run, with the per-phase breakdown."""

    def __init__(
        self,
        ops_applied: int,
        num_trials: int,
        cache_stats: CacheStats,
        finish_calls: int,
        num_workers: int,
        partition_depth: int,
        num_tasks: int,
        assignment: Tuple[Tuple[int, ...], ...],
        prefix_ops: int,
        worker_ops: Tuple[int, ...],
        shm_bytes: int,
        used_fork: bool,
        parent_ops: int = 0,
        wasted_ops: int = 0,
        tasks_retried: int = 0,
        workers_lost: int = 0,
        parent_tasks: Tuple[int, ...] = (),
    ) -> None:
        super().__init__(ops_applied, num_trials, cache_stats, finish_calls)
        self.num_workers = num_workers
        self.partition_depth = partition_depth
        self.num_tasks = num_tasks
        self.assignment = assignment
        self.prefix_ops = prefix_ops
        self.worker_ops = worker_ops
        #: Total shared memory allocated (entry + result buffers).
        self.shm_bytes = shm_bytes
        #: False when the pool ran inline (no ``fork`` support, or forced).
        self.used_fork = used_fork
        #: Ops the parent spent on last-resort inline task execution.
        self.parent_ops = parent_ops
        #: Ops of completed-but-rejected attempts (checksum failures) and
        #: of prefix re-runs to regenerate corrupted entry states — work
        #: that was done but does not contribute to ``ops_applied``.
        self.wasted_ops = wasted_ops
        #: Task attempts requeued after a failure, crash or timeout.
        self.tasks_retried = tasks_retried
        #: Workers that crashed or were killed for blowing the deadline.
        self.workers_lost = workers_lost
        #: Task ids the parent ultimately executed itself.
        self.parent_tasks = parent_tasks

    def __repr__(self) -> str:
        return (
            f"ParallelOutcome(ops={self.ops_applied}, "
            f"trials={self.num_trials}, workers={self.num_workers}, "
            f"tasks={self.num_tasks}, peak_msv={self.peak_msv})"
        )


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


@contextlib.contextmanager
def graceful_stop(
    signals: Sequence[int] = (signal_module.SIGTERM, signal_module.SIGINT),
):
    """Turn SIGTERM/SIGINT into a cooperative stop event for the block.

    The default disposition of SIGTERM kills the process outright —
    ``finally`` blocks never run, so a parallel run leaks its
    shared-memory segments and a journal loses its in-flight tail.  Inside
    this context the listed signals instead set the yielded
    ``threading.Event``; executors polling it (``run_optimized(stop=...)``,
    ``run_parallel(stop=...)``) drain in-flight work, commit what
    completed, release every resource through their normal cleanup paths
    and raise :class:`~repro.core.executor.RunInterrupted`.  Previous
    handlers are restored on exit.  Signal handlers can only be installed
    from the main thread; use a plain ``threading.Event`` (or the asyncio
    loop's ``add_signal_handler``) elsewhere.
    """
    stop = threading.Event()
    previous = {}
    for sig in signals:
        previous[sig] = signal_module.signal(
            sig, lambda signum, frame: stop.set()
        )
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            signal_module.signal(sig, handler)


class _PrefixCache(StateCache):
    """State cache of the parent's prefix walk.

    Owns the shared-memory entry rows the walk copies each ``EmitTask``
    state into.  An emitted entry stays resident until the workers read
    it, so the phase-1 peaks are ``num_live + emitted`` and
    ``num_stored + emitted``, sampled wherever the cache grows; the
    ``msv.live`` gauge keeps counting cache states only.
    """

    def __init__(self, partition: PlanPartition, entries: np.ndarray, recorder):
        super().__init__(recorder=recorder)
        self.tasks = partition.tasks
        self.entries = entries
        self.emitted = 0
        self.peak_live = 0
        self.peak_stored = 0

    def _update_peaks(self) -> None:
        super()._update_peaks()
        self.peak_live = max(self.peak_live, self.num_live + self.emitted)
        self.peak_stored = max(self.peak_stored, self.num_stored + self.emitted)

    def emit(self, task_id: int, layer: int) -> None:
        """Account entry row ``task_id``, just copied at ``layer``."""
        task = self.tasks[task_id]
        if layer != task.entry_layer:
            raise ScheduleError(
                f"task {task_id} entry at layer {task.entry_layer} "
                f"but working state is at layer {layer}"
            )
        self.emitted += 1
        self._update_peaks()
        recorder = self._recorder
        if recorder:
            recorder.instant(
                "task.emit", cat="parallel", task=task_id, layer=layer,
                trials=len(task.trial_indices),
            )
            recorder.counter("tasks.emitted", 1)


def _walk_prefix(
    partition: PlanPartition,
    layered: LayeredCircuit,
    backend,
    entries: np.ndarray,
    recorder,
    hybrid: bool,
) -> Dict[str, int]:
    """Execute the prefix program once; serialize entry states into
    ``entries`` (one row per task).  Returns the phase-1 counters.

    The prefix runs through the serial executor's dense walk, or with
    ``hybrid`` through the Clifford/Pauli-frame walk when its classifier
    finds shared symbolic work; entry rows are bitwise identical either
    way.
    """
    schedule = None
    if hybrid:
        from .hybrid import _hybrid_walk, _require_compiled, classify_instructions

        _require_compiled(backend)
        schedule = classify_instructions(layered, partition.prefix)
    backend.reset_counter()
    backend.set_recorder(recorder)
    cache = _PrefixCache(partition, entries, recorder)
    if recorder:
        recorder.begin(
            "prefix",
            cat="parallel",
            tasks=partition.num_tasks,
            depth=partition.depth,
        )
    if schedule is not None and schedule.active:
        ops = _hybrid_walk(
            layered, partition.prefix, backend, schedule, cache,
            recorder=recorder,
        )["ops"]
    else:
        _walk(layered, partition.prefix, backend, cache, recorder=recorder)
        ops = backend.ops_applied
    if recorder:
        recorder.end(
            "prefix", cat="parallel", ops_applied=ops,
            tasks_emitted=cache.emitted,
        )
    return {
        "ops": ops,
        "peak_live": cache.peak_live,
        "peak_stored": cache.peak_stored,
        "snapshots_taken": cache.stats().snapshots_taken,
    }


# -- task execution + integrity primitives --------------------------------------


def _flip_row_byte(array: np.ndarray, row: int) -> None:
    """Deterministically corrupt one byte of a shared-memory row (chaos)."""
    array[row].view(np.uint8)[0] ^= 0xFF


def _verify_entry(
    task_id: int, entries: np.ndarray, entry_checksums: Sequence[int]
) -> None:
    """Raise :class:`CorruptionError` unless the entry row checks out."""
    actual = payload_checksum(entries[task_id])
    if actual != entry_checksums[task_id]:
        raise CorruptionError(
            f"task {task_id} entry state failed its checksum "
            f"(expected {entry_checksums[task_id]:#010x}, got {actual:#010x})"
        )


def _verify_payloads(
    task: SubPlan,
    results: np.ndarray,
    result_offsets: Sequence[int],
    checksums: Sequence[int],
) -> bool:
    """Re-sum a task's finish rows against the worker's reported CRCs."""
    if len(checksums) != task.num_finishes:
        return False
    base = result_offsets[task.task_id]
    return all(
        payload_checksum(results[base + position]) == checksum
        for position, checksum in enumerate(checksums)
    )


def _run_one_task(
    task: SubPlan,
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend,
    entries: np.ndarray,
    results: np.ndarray,
    result_offsets: Sequence[int],
    recorder,
    cache_budget: Optional[CacheBudget],
    batch_size: int = 0,
) -> Dict[str, Any]:
    """Run one sub-plan; write its finish payloads and their checksums."""
    num_qubits = layered.num_qubits
    # Each execution copies the entry snapshot into its own buffer; the
    # shared region stays pristine (retries re-read the same bytes).
    entry = Statevector(num_qubits, tensor=entries[task.task_id])
    local_trials = [trials[g] for g in task.trial_indices]
    cursor = [result_offsets[task.task_id]]
    checksums: List[int] = []

    def write_finish(payload, _local_indices, _cursor=cursor, _sums=checksums):
        row = results[_cursor[0]]
        np.copyto(row, payload.vector)
        _sums.append(payload_checksum(row))
        _cursor[0] += 1

    run_kwargs = dict(
        plan=task.plan,
        recorder=recorder,
        entry_state=entry,
        entry_layer=task.entry_layer,
        entry_events=task.entry_events,
        cache_budget=cache_budget,
    )
    if batch_size:
        from .wavefront import run_wavefront

        outcome = run_wavefront(
            layered, local_trials, backend, write_finish,
            batch_size=batch_size, **run_kwargs,
        )
    else:
        outcome = run_optimized(
            layered, local_trials, backend, write_finish, **run_kwargs
        )
    return {
        "ops": outcome.ops_applied,
        "finish_calls": outcome.finish_calls,
        "snapshots_taken": outcome.cache_stats.snapshots_taken,
        "peak": outcome.peak_msv,
        "stored": outcome.peak_stored,
        "checksums": checksums,
    }


def _worker_main(
    worker_id: int,
    partition: PlanPartition,
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend_factory: Callable[[], Any],
    entries: np.ndarray,
    results: np.ndarray,
    result_offsets: Sequence[int],
    entry_checksums: Sequence[int],
    recorder,
    cache_budget: Optional[CacheBudget],
    batch_size: int,
    faults,
    task_queue,
    report_queue,
) -> None:
    """Forked child main: pull tasks until the ``None`` sentinel.

    Every claimed task produces exactly one ``task`` or ``task_error``
    report (bracketed by a ``start`` report so the parent can track
    in-flight deadlines); a clean exit ends with a ``done`` report
    carrying the worker's trace recorder.
    """
    backend = backend_factory()
    worker_recorder = recorder.child() if recorder else None
    tasks_done = 0
    while True:
        item = task_queue.get()
        if item is None:
            break
        task_id, attempt = item
        report_queue.put(
            {"type": "start", "worker": worker_id, "task": task_id,
             "attempt": attempt}
        )
        try:
            if faults is not None:
                faults.before_task(
                    worker_id, task_id, attempt, tasks_done, inline=False
                )
            _verify_entry(task_id, entries, entry_checksums)
            report = _run_one_task(
                partition.tasks[task_id], layered, trials, backend,
                entries, results, result_offsets, worker_recorder,
                cache_budget, batch_size,
            )
            if faults is not None and faults.corrupt_payload(task_id, attempt):
                _flip_row_byte(results, result_offsets[task_id])
            report.update(
                type="task", worker=worker_id, task=task_id, attempt=attempt
            )
            report_queue.put(report)
        except WorkerCrash:  # pragma: no cover - exercised via fork tests
            # Flush buffered reports before dying: exiting while our
            # feeder thread holds the queue's shared write lock would
            # block every *other* worker's reports (a real crash there is
            # only recoverable via the task_timeout deadline).
            report_queue.close()
            report_queue.join_thread()
            os._exit(_CRASH_EXIT)
        except BaseException as exc:
            report_queue.put(
                {"type": "task_error", "worker": worker_id, "task": task_id,
                 "attempt": attempt, "error": repr(exc)}
            )
        tasks_done += 1
    if worker_recorder:
        from .hostinfo import peak_rss_kb

        rss = peak_rss_kb()
        worker_recorder.instant(
            "worker.host", cat="parallel", worker_id=worker_id,
            tasks_done=tasks_done, peak_rss_self_kb=rss["self"],
        )
    report_queue.put(
        {"type": "done", "worker": worker_id, "recorder": worker_recorder}
    )


class _PoolResult(NamedTuple):
    """What a driver hands back to the merge phase."""

    completed: Dict[int, Dict[str, Any]]
    needs_parent: Set[int]
    recorders: List[Tuple[int, Any]]
    wasted_ops: int
    tasks_retried: int
    workers_lost: int
    #: A stop request ended dispatch early; ``completed`` holds whatever
    #: drained cleanly and no parent fallback may run.
    interrupted: bool = False


def _drive_fork_pool(
    partition: PlanPartition,
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend_factory: Callable[[], Any],
    entries: np.ndarray,
    results: np.ndarray,
    result_offsets: Sequence[int],
    entry_checksums: Sequence[int],
    order: Sequence[int],
    workers: int,
    recorder,
    cache_budget: Optional[CacheBudget],
    batch_size: int,
    faults,
    retries: int,
    task_timeout: Optional[float],
    stop=None,
) -> _PoolResult:
    """Dispatch tasks to forked workers with crash/hang recovery."""
    ctx = multiprocessing.get_context("fork")
    task_queue = ctx.Queue()
    report_queue = ctx.Queue()
    num_tasks = partition.num_tasks
    for task_id in order:
        task_queue.put((task_id, 0))
    processes: Dict[int, Any] = {}
    for worker_id in range(min(workers, num_tasks)):
        process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id, partition, layered, trials, backend_factory,
                entries, results, result_offsets, entry_checksums,
                recorder, cache_budget, batch_size, faults, task_queue,
                report_queue,
            ),
        )
        process.start()
        processes[worker_id] = process

    pending: Set[int] = set(range(num_tasks))
    needs_parent: Set[int] = set()
    attempts = {task_id: 0 for task_id in range(num_tasks)}
    inflight: Dict[int, Tuple[int, float]] = {}
    completed: Dict[int, Dict[str, Any]] = {}
    done_workers: Set[int] = set()
    dead_workers: Set[int] = set()
    recorders: List[Tuple[int, Any]] = []
    wasted_ops = 0
    tasks_retried = 0

    def alive() -> List[int]:
        return [
            w for w in processes
            if w not in dead_workers and w not in done_workers
        ]

    def requeue(task_id: int, reason: str) -> None:
        nonlocal tasks_retried
        attempts[task_id] += 1
        if attempts[task_id] > retries or not alive():
            needs_parent.add(task_id)
            if recorder:
                recorder.instant(
                    "task.fallback", cat="parallel", task=task_id,
                    reason=reason,
                )
        else:
            tasks_retried += 1
            task_queue.put((task_id, attempts[task_id]))
            if recorder:
                recorder.instant(
                    "task.retry", cat="parallel", task=task_id,
                    attempt=attempts[task_id], reason=reason,
                )

    def kill_worker(worker_id: int) -> None:
        process = processes[worker_id]
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - terminate refused
                process.kill()
                process.join(1.0)
        dead_workers.add(worker_id)

    poll = 0.05 if task_timeout is None else min(0.05, task_timeout / 4)
    interrupted = False
    try:
        while pending - needs_parent:
            if stop is not None and stop.is_set():
                # Graceful shutdown: drop every unstarted task from the
                # queue so workers stop at the sentinel after finishing
                # their current task; the shutdown drain below still
                # collects those in-flight completions.
                interrupted = True
                try:
                    while True:
                        task_queue.get_nowait()
                except queue_module.Empty:
                    pass
                if recorder:
                    recorder.instant(
                        "pool.interrupted", cat="parallel",
                        pending=len(pending),
                    )
                break
            try:
                message = report_queue.get(timeout=poll)
            except queue_module.Empty:
                message = None
            if message is None:
                now = time.monotonic()
                if task_timeout is not None:
                    for worker_id in list(inflight):
                        task_id, started = inflight[worker_id]
                        if now - started > task_timeout:
                            kill_worker(worker_id)
                            inflight.pop(worker_id, None)
                            if recorder:
                                recorder.instant(
                                    "worker.timeout", cat="parallel",
                                    worker=worker_id, task=task_id,
                                )
                            if task_id in pending:
                                requeue(task_id, "timeout")
                for worker_id, process in processes.items():
                    if (
                        worker_id in dead_workers
                        or worker_id in done_workers
                        or process.is_alive()
                    ):
                        continue
                    dead_workers.add(worker_id)
                    hung = inflight.pop(worker_id, None)
                    if recorder:
                        recorder.instant(
                            "worker.crash", cat="parallel", worker=worker_id,
                            exitcode=process.exitcode,
                        )
                    if hung is not None and hung[0] in pending:
                        requeue(hung[0], "crash")
                if not alive():
                    needs_parent.update(pending)
                continue
            kind = message["type"]
            worker_id = message["worker"]
            if kind == "start":
                inflight[worker_id] = (message["task"], time.monotonic())
            elif kind == "task":
                inflight.pop(worker_id, None)
                task_id = message["task"]
                if task_id not in pending:
                    continue  # stale duplicate of an already-settled task
                task = partition.tasks[task_id]
                if _verify_payloads(
                    task, results, result_offsets, message["checksums"]
                ):
                    completed[task_id] = message
                    pending.discard(task_id)
                    needs_parent.discard(task_id)
                else:
                    wasted_ops += message["ops"]
                    if recorder:
                        recorder.instant(
                            "payload.corrupt", cat="parallel", task=task_id,
                            worker=worker_id,
                        )
                    requeue(task_id, "checksum")
            elif kind == "task_error":
                inflight.pop(worker_id, None)
                task_id = message["task"]
                if task_id in pending:
                    requeue(task_id, message["error"])
            elif kind == "done":
                done_workers.add(worker_id)
                inflight.pop(worker_id, None)
                if message.get("recorder") is not None:
                    recorders.append((worker_id, message["recorder"]))

        # Shutdown: one sentinel per surviving worker, then drain their
        # remaining reports (late successes for given-up tasks included).
        for _ in alive():
            task_queue.put(None)
        deadline = time.monotonic() + 10.0
        while alive() and time.monotonic() < deadline:
            try:
                message = report_queue.get(timeout=0.1)
            except queue_module.Empty:
                for worker_id, process in processes.items():
                    if (
                        worker_id not in dead_workers
                        and worker_id not in done_workers
                        and not process.is_alive()
                    ):
                        dead_workers.add(worker_id)
                continue
            if message["type"] == "done":
                done_workers.add(message["worker"])
                if message.get("recorder") is not None:
                    recorders.append((message["worker"], message["recorder"]))
            elif message["type"] == "task" and message["task"] in pending:
                task = partition.tasks[message["task"]]
                if _verify_payloads(
                    task, results, result_offsets, message["checksums"]
                ):
                    completed[message["task"]] = message
                    pending.discard(message["task"])
                    needs_parent.discard(message["task"])
        for worker_id, process in processes.items():
            process.join(0.1 if worker_id in dead_workers else 5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(1.0)
                dead_workers.add(worker_id)
    finally:
        # Leftover queue items must not block interpreter shutdown.
        for q in (task_queue, report_queue):
            q.close()
            q.cancel_join_thread()
    return _PoolResult(
        completed=completed,
        needs_parent=needs_parent,
        recorders=recorders,
        wasted_ops=wasted_ops,
        tasks_retried=tasks_retried,
        workers_lost=len(dead_workers),
        interrupted=interrupted,
    )


def _drive_inline(
    partition: PlanPartition,
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend_factory: Callable[[], Any],
    entries: np.ndarray,
    results: np.ndarray,
    result_offsets: Sequence[int],
    entry_checksums: Sequence[int],
    assignment: Sequence[Sequence[int]],
    recorder,
    cache_budget: Optional[CacheBudget],
    batch_size: int,
    faults,
    retries: int,
    stop=None,
) -> _PoolResult:
    """In-process pool: virtual workers, same recovery state machine.

    Each task runs on its planned LPT worker (own backend + recorder, as a
    real pool would).  A :class:`WorkerCrash` fault marks the virtual
    worker dead; its remaining tasks migrate to the lowest-id survivor.  A
    simulated hang is treated as a crash — there is no process to kill.
    """
    from collections import deque

    owner = {
        task_id: worker_id
        for worker_id, bucket in enumerate(assignment)
        for task_id in bucket
    }
    work = deque(
        (task_id, 0) for bucket in assignment for task_id in bucket
    )
    backends: Dict[int, Any] = {}
    recorders: Dict[int, Any] = {}
    tasks_done: Dict[int, int] = {}
    dead: Set[int] = set()
    completed: Dict[int, Dict[str, Any]] = {}
    needs_parent: Set[int] = set()
    attempts = {task_id: 0 for task_id in owner}
    wasted_ops = 0
    tasks_retried = 0

    interrupted = False
    while work:
        if stop is not None and stop.is_set():
            interrupted = True
            if recorder:
                recorder.instant(
                    "pool.interrupted", cat="parallel", pending=len(work)
                )
            break
        task_id, attempt = work.popleft()
        if task_id in completed:
            continue
        worker_id = owner[task_id]
        if worker_id in dead:
            survivors = [
                w for w, bucket in enumerate(assignment)
                if bucket and w not in dead
            ]
            if not survivors:
                needs_parent.add(task_id)
                continue
            worker_id = survivors[0]
        if worker_id not in backends:
            backends[worker_id] = backend_factory()
            recorders[worker_id] = recorder.child() if recorder else None
            tasks_done[worker_id] = 0
        try:
            if faults is not None:
                faults.before_task(
                    worker_id, task_id, attempt, tasks_done[worker_id],
                    inline=True,
                )
            _verify_entry(task_id, entries, entry_checksums)
            report = _run_one_task(
                partition.tasks[task_id], layered, trials,
                backends[worker_id], entries, results, result_offsets,
                recorders[worker_id], cache_budget, batch_size,
            )
            if faults is not None and faults.corrupt_payload(task_id, attempt):
                _flip_row_byte(results, result_offsets[task_id])
            tasks_done[worker_id] += 1
            if not _verify_payloads(
                partition.tasks[task_id], results, result_offsets,
                report["checksums"],
            ):
                wasted_ops += report["ops"]
                if recorder:
                    recorder.instant(
                        "payload.corrupt", cat="parallel", task=task_id,
                        worker=worker_id,
                    )
                raise CorruptionError(
                    f"task {task_id} finish payloads failed their checksums"
                )
            report.update(worker=worker_id, task=task_id)
            completed[task_id] = report
        except WorkerCrash:
            dead.add(worker_id)
            if recorder:
                recorder.instant(
                    "worker.crash", cat="parallel", worker=worker_id
                )
            work.appendleft((task_id, attempt))
        except BaseException as exc:
            tasks_done[worker_id] = tasks_done.get(worker_id, 0) + 1
            attempts[task_id] += 1
            if attempts[task_id] > retries:
                needs_parent.add(task_id)
                if recorder:
                    recorder.instant(
                        "task.fallback", cat="parallel", task=task_id,
                        reason=repr(exc),
                    )
            else:
                tasks_retried += 1
                work.append((task_id, attempts[task_id]))
                if recorder:
                    recorder.instant(
                        "task.retry", cat="parallel", task=task_id,
                        attempt=attempts[task_id], reason=repr(exc),
                    )

    return _PoolResult(
        completed=completed,
        needs_parent=needs_parent,
        recorders=sorted(
            ((w, r) for w, r in recorders.items() if r is not None),
            key=lambda pair: pair[0],
        ),
        wasted_ops=wasted_ops,
        tasks_retried=tasks_retried,
        workers_lost=len(dead),
        interrupted=interrupted,
    )


def run_parallel(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend_factory: Callable[[], Any],
    on_finish: Optional[FinishCallback] = None,
    workers: int = 2,
    depth: int = 1,
    check: bool = False,
    recorder=None,
    inline: Optional[bool] = None,
    cache_budget: Optional[CacheBudget] = None,
    retries: int = 2,
    task_timeout: Optional[float] = None,
    faults=None,
    task_weights: Optional[Sequence[int]] = None,
    batch_size: int = 0,
    hybrid: bool = False,
    stop=None,
) -> ParallelOutcome:
    """Execute ``trials`` with prefix reuse across ``workers`` processes.

    Produces results bit-identical to the serial
    :func:`~repro.core.executor.run_optimized` for the same trial set:
    the same ``on_finish`` payload/index sequence in the same order (so a
    seeded RNG in the callback sees the identical stream), and the same
    total ``ops_applied`` — in every recovery path (worker crash, hang,
    corruption) as well as the no-fault run.

    Parameters
    ----------
    backend_factory:
        Zero-argument callable building a statevector-family backend
        (states must expose ``.vector``); called once in the parent for
        the prefix phase and once inside every worker.  Never pickled —
        workers inherit it through ``fork``.
    on_finish:
        Streaming consumer of final states, called in the parent *after*
        the pool drains, in exactly the serial plan's finish order.  The
        payload borrows the worker's result buffer (shared memory) and is
        only valid during the callback — copy it to retain it.
    workers:
        Worker process count; any value >= 1 (a single worker still
        exercises the full partition/serialize/merge machinery).
    depth:
        Trie cut depth passed to :func:`partition_plan`.
    check:
        Audit the partition with lint rule ``P018`` before executing and
        verify the merged operation count against the closed form after
        (the strict equality is relaxed to ``>=`` under a drop-mode cache
        budget, whose recomputes legitimately add operations).
    recorder:
        Optional trace recorder.  The parent records the prefix phase and
        the merge; each worker records into a fresh child recorder whose
        events are merged back tagged with a ``worker`` argument (the
        exporter fans them out to per-worker threads).  Falsy recorders
        keep the workers completely uninstrumented.
    inline:
        ``None`` (default) forks when the platform supports it and falls
        back to in-process execution otherwise; ``True`` forces the
        in-process path (deterministic tests, spy instrumentation);
        ``False`` demands real processes and raises without ``fork``.
    cache_budget:
        Optional :class:`~repro.core.cache.CacheBudget` forwarded to every
        sub-plan execution (workers and parent fallback alike).
    retries:
        How many times a failed task attempt (crash, timeout, checksum
        mismatch, exception) is requeued before the parent executes it
        inline as the last resort.
    task_timeout:
        Per-task deadline in seconds (fork mode only).  A worker whose
        in-flight task exceeds it is killed and the task requeued; without
        a deadline, hung workers are indistinguishable from slow ones.
    faults:
        Deterministic fault injector (:class:`repro.testing.ChaosPlan`)
        exposing ``before_task`` / ``corrupt_payload`` / ``corrupt_entry``
        hooks; production runs leave it ``None``.
    task_weights:
        Optional per-task schedule weights (one per partition task)
        replacing the built-in operation-count heuristic in both the
        static LPT assignment and the dynamic dispatch order — the hook
        a resource certificate's flop weights feed
        (:func:`repro.lint.costmodel.build_certificate`).  Scheduling
        only: results are bit-identical for any weighting.
    batch_size:
        ``0`` (default) runs each sub-plan through the serial DFS
        executor.  Any value >= 1 runs each sub-plan through the
        trial-batched wavefront
        (:func:`~repro.core.wavefront.run_wavefront`) instead — workers,
        recovery paths and the parent fallback alike.  Results and
        operation counts stay bit-identical at every width.
    hybrid:
        Run the shared prefix through the Clifford/Pauli-frame walk of
        :func:`~repro.core.hybrid.run_hybrid` — entry states are
        materialized from shared anchors instead of walked densely, and
        stay bitwise identical, so workers (always dense) produce the
        same results.  Requires a compiled statevector backend.
    stop:
        Optional ``threading.Event`` enabling graceful shutdown (pair it
        with :func:`graceful_stop` to hook SIGTERM/SIGINT).  When set, no
        new tasks are dispatched; in-flight tasks drain to completion,
        finishes of the maximal completed task-id prefix (== the serial
        finish-order prefix, so a journal tee stays a valid resume point)
        are delivered through ``on_finish``, shared-memory segments are
        released, workers are joined, and
        :class:`~repro.core.executor.RunInterrupted` is raised.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    partition = partition_plan(layered, trials, depth=depth, check=check)
    if task_weights is not None and len(task_weights) != partition.num_tasks:
        raise ValueError(
            f"got {len(task_weights)} task weight(s) for "
            f"{partition.num_tasks} task(s) at depth {depth}"
        )
    assignment = partition.assign(workers, weights=task_weights)
    use_fork = fork_available() if inline is None else not inline
    if inline is False and not fork_available():
        raise RuntimeError(
            "fork start method unavailable on this platform; "
            "use inline=None/True"
        )

    num_qubits = layered.num_qubits
    amplitudes = 2**num_qubits
    state_bytes = amplitudes * 16  # complex128
    num_tasks = partition.num_tasks
    total_finishes = partition.total_finishes
    result_offsets: List[int] = []
    offset = 0
    for task in partition.tasks:
        result_offsets.append(offset)
        offset += task.num_finishes
    shm_bytes = (num_tasks + total_finishes) * state_bytes

    from multiprocessing import shared_memory

    entries_shm = shared_memory.SharedMemory(
        create=True, size=num_tasks * state_bytes
    )
    results_shm = shared_memory.SharedMemory(
        create=True, size=total_finishes * state_bytes
    )
    try:
        entries = np.ndarray(
            (num_tasks, amplitudes), dtype=np.complex128,
            buffer=entries_shm.buf,
        )
        results = np.ndarray(
            (total_finishes, amplitudes), dtype=np.complex128,
            buffer=results_shm.buf,
        )

        if recorder:
            recorder.instant(
                "parallel.meta", cat="parallel", workers=workers,
                depth=depth, tasks=num_tasks, shm_bytes=shm_bytes,
                fork=use_fork, retries=retries, task_timeout=task_timeout,
                batch=batch_size,
            )

        phase1 = _walk_prefix(
            partition, layered, backend_factory(), entries, recorder, hybrid
        )
        wasted_ops = 0

        # Checksum every entry state before it crosses the process
        # boundary; workers re-verify before use.
        entry_checksums = [
            payload_checksum(entries[task_id]) for task_id in range(num_tasks)
        ]
        if faults is not None:
            for task_id in range(num_tasks):
                if faults.corrupt_entry(task_id):
                    _flip_row_byte(entries, task_id)

        def regenerate_entries() -> None:
            """Re-run the prefix to rebuild corrupted entry states."""
            nonlocal wasted_ops
            regen = _walk_prefix(
                partition, layered, backend_factory(), entries, None, hybrid
            )
            wasted_ops += regen["ops"]
            if recorder:
                recorder.instant(
                    "prefix.regenerated", cat="parallel", ops=regen["ops"]
                )

        # LPT dispatch order: heaviest first keeps the dynamic queue's
        # makespan near the static assignment's.
        dispatch_weights = (
            task_weights
            if task_weights is not None
            else [task.est_ops for task in partition.tasks]
        )
        order = sorted(
            range(num_tasks),
            key=lambda t: (-dispatch_weights[t], t),
        )
        if use_fork and num_tasks:
            pool = _drive_fork_pool(
                partition, layered, trials, backend_factory, entries,
                results, result_offsets, entry_checksums, order, workers,
                recorder, cache_budget, batch_size, faults, retries,
                task_timeout, stop=stop,
            )
        else:
            pool = _drive_inline(
                partition, layered, trials, backend_factory, entries,
                results, result_offsets, entry_checksums, assignment,
                recorder, cache_budget, batch_size, faults, retries,
                stop=stop,
            )
        completed = dict(pool.completed)
        needs_parent = set(pool.needs_parent)
        wasted_ops += pool.wasted_ops

        def deliver(task: SubPlan) -> None:
            """Replay one task's finishes, in order, through on_finish."""
            base = result_offsets[task.task_id]
            for position, global_indices in enumerate(task.finishes):
                on_finish(
                    Statevector.from_buffer(
                        results[base + position], num_qubits
                    ),
                    global_indices,
                )

        if pool.interrupted:
            # Graceful shutdown: deliver the finishes of the maximal
            # *verified* completed task-id prefix — task-id order equals
            # the serial finish order, so the delivered stream (and any
            # journal tee behind on_finish) is an exact prefix of the
            # uninterrupted run — then surface the interrupt.  The
            # enclosing ``finally`` releases both shared-memory segments.
            if recorder:
                for worker_id, worker_recorder in pool.recorders:
                    recorder.merge(worker_recorder, worker=worker_id)
            trials_delivered = 0
            for task in partition.tasks:
                report = completed.get(task.task_id)
                if report is None or not _verify_payloads(
                    task, results, result_offsets, report["checksums"]
                ):
                    break
                if on_finish is not None:
                    deliver(task)
                trials_delivered += len(task.trial_indices)
            raise RunInterrupted(
                "parallel run interrupted by stop request "
                f"({trials_delivered}/{len(trials)} trials committed)",
                trials_completed=trials_delivered,
            )

        # Final integrity sweep: accepted payloads must still verify (a
        # stale duplicate attempt could have scribbled after acceptance).
        for task_id, report in list(completed.items()):
            task = partition.tasks[task_id]
            if not _verify_payloads(
                task, results, result_offsets, report["checksums"]
            ):
                wasted_ops += report["ops"]
                del completed[task_id]
                needs_parent.add(task_id)

        # Last resort: the parent executes leftover tasks inline, serially,
        # regenerating entry states if the shared block was corrupted.
        parent_reports: Dict[int, Dict[str, Any]] = {}
        if needs_parent:
            parent_backend = backend_factory()
            for task_id in sorted(needs_parent):
                try:
                    _verify_entry(task_id, entries, entry_checksums)
                except CorruptionError:
                    regenerate_entries()
                    _verify_entry(task_id, entries, entry_checksums)
                report = _run_one_task(
                    partition.tasks[task_id], layered, trials,
                    parent_backend, entries, results, result_offsets,
                    None, cache_budget, batch_size,
                )
                report.update(worker=None, task=task_id)
                parent_reports[task_id] = report
                if recorder:
                    recorder.instant(
                        "task.inline", cat="parallel", task=task_id
                    )

        missing = [
            t for t in range(num_tasks)
            if t not in completed and t not in parent_reports
        ]
        if missing:  # pragma: no cover - the fallback covers every task
            raise RuntimeError(
                f"parallel tasks never completed: {sorted(missing)}"
            )

        if recorder:
            for worker_id, worker_recorder in pool.recorders:
                recorder.merge(worker_recorder, worker=worker_id)

        # Replay finishes in task-id order == serial finish order, so a
        # stateful on_finish (measurement RNG!) sees the serial stream.
        if on_finish is not None:
            if recorder:
                recorder.begin("merge", cat="parallel")
            for task in partition.tasks:
                deliver(task)
            if recorder:
                recorder.end(
                    "merge", cat="parallel", finish_calls=total_finishes
                )

        # Per executor — a worker id, or None for the parent's inline
        # last resort: summed ops and the largest task peaks.
        ops_by: Dict[Optional[int], int] = {}
        peak_by: Dict[Optional[int], int] = {}
        stored_by: Dict[Optional[int], int] = {}
        snapshots_taken = phase1["snapshots_taken"]
        finish_calls = 0
        for report in [*completed.values(), *parent_reports.values()]:
            key = report["worker"]
            ops_by[key] = ops_by.get(key, 0) + report["ops"]
            peak_by[key] = max(peak_by.get(key, 0), report["peak"])
            stored_by[key] = max(stored_by.get(key, 0), report["stored"])
            snapshots_taken += report["snapshots_taken"]
            finish_calls += report["finish_calls"]
        parent_ops = ops_by.pop(None, 0)
        worker_ops = tuple(ops_by[w] for w in sorted(ops_by))
        ops_applied = phase1["ops"] + sum(worker_ops) + parent_ops
        if check:
            planned = partition.planned_operations(layered)
            degraded = cache_budget is not None and cache_budget.mode == "drop"
            if (not degraded and ops_applied != planned) or (
                degraded and ops_applied < planned
            ):
                raise ScheduleError(
                    f"merged ops {ops_applied} != planned {planned}"
                )
        peak_msv = max(
            phase1["peak_live"], num_tasks + sum(peak_by.values())
        )
        peak_stored = max(
            phase1["peak_stored"], num_tasks + sum(stored_by.values())
        )
        cache_stats = CacheStats(
            peak_msv=peak_msv,
            peak_stored=peak_stored,
            snapshots_taken=snapshots_taken,
            snapshots_released=snapshots_taken,
        )
        return ParallelOutcome(
            ops_applied=ops_applied,
            num_trials=len(trials),
            cache_stats=cache_stats,
            finish_calls=finish_calls,
            num_workers=workers,
            partition_depth=depth,
            num_tasks=num_tasks,
            assignment=tuple(tuple(bucket) for bucket in assignment),
            prefix_ops=phase1["ops"],
            worker_ops=worker_ops,
            shm_bytes=shm_bytes,
            used_fork=use_fork and num_tasks > 0,
            parent_ops=parent_ops,
            wasted_ops=wasted_ops,
            tasks_retried=pool.tasks_retried,
            workers_lost=pool.workers_lost,
            parent_tasks=tuple(sorted(parent_reports)),
        )
    finally:
        # Views must be gone before close() — numpy keeps buffer exports.
        try:
            del entries, results
        except NameError:  # pragma: no cover - allocation failed mid-way
            pass
        entries_shm.close()
        entries_shm.unlink()
        results_shm.close()
        results_shm.unlink()
