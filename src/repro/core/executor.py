"""Plan interpretation: optimized and baseline execution.

:func:`run_optimized` interprets an :class:`ExecutionPlan` against any
:class:`~repro.sim.backend.SimulationBackend`; :func:`run_baseline`
re-executes every trial from the initial state, exactly like the
straightforward Monte-Carlo strategy of QX / Rigetti QVM that the paper
compares against (Sec. V "Baseline").

Both run the same backend and count the same basic operations, so the
normalized-computation metric is a pure ratio of the two counters.  Final
states are delivered through a streaming callback — one call per distinct
final state, carrying all (deduplicated) trial indices that share it — so
no executor ever holds more than the cache-accounted number of states.

Both executors accept an optional ``recorder``
(:class:`~repro.obs.recorder.TraceRecorder`): when attached, every
``Advance`` becomes a span, every injection/finish an instant, every cache
store/restore a cache event with the live-MSV gauge sampled alongside, and
a ``run.meta`` instant carries enough context (trial counts, gate counts,
closed-form baseline ops) that :class:`ExecutionOutcome` and
:class:`~repro.core.metrics.RunMetrics` can be re-derived from the trace
alone (see :mod:`repro.obs.summary`).  Every recorder touch sits behind a
single ``if recorder:`` check and the default is off, so the un-traced hot
path is unchanged.

Memory-budgeted degradation
---------------------------
``run_optimized`` accepts a :class:`~repro.core.cache.CacheBudget`: after
every snapshot store the executor degrades the coldest resident snapshot
(spill to disk, or drop and recompute from its event provenance) until the
resident footprint fits.  Results are unchanged — spilled amplitudes are
checksum-verified on reload, and a recomputed snapshot replays exactly the
advance/inject boundaries that produced the original, so even compiled
kernel fusion reproduces the same float rounding.  The nominal peak-MSV
accounting deliberately ignores degradation (it mirrors the plan's demand
and lint's static bound); the actually-resident peaks are reported
separately on :class:`~repro.core.cache.CacheStats`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..sim.backend import SimulationBackend
from ..sim.statevector import Statevector
from .cache import (
    CacheBudget,
    CacheStats,
    CorruptionError,
    DroppedSnapshot,
    SpilledSnapshot,
    StateCache,
    payload_checksum,
)
from .events import Trial
from .schedule import (
    Advance,
    EmitTask,
    ExecutionPlan,
    Finish,
    Inject,
    Restore,
    ScheduleError,
    Snapshot,
    build_plan,
)
from .shared import SharedPrefixStore, advance_step, circuit_fingerprint, inject_step

__all__ = [
    "ExecutionOutcome",
    "RunInterrupted",
    "run_optimized",
    "run_baseline",
    "FinishCallback",
]

#: Called once per distinct final state: ``(state_payload, trial_indices)``.
FinishCallback = Callable[[Any, Tuple[int, ...]], None]


class RunInterrupted(RuntimeError):
    """An execution was stopped cooperatively before finishing its trials.

    Raised when a ``stop`` event passed to an executor (or to
    :func:`~repro.core.parallel.run_parallel` via a signal handler) is
    set.  The interrupt is *clean*: every finish delivered before the
    exception was complete and in order, resources were released through
    the normal ``finally`` paths, and a journaled run's committed tail
    remains a valid resume point.  ``trials_completed`` counts the trials
    whose finishes were delivered before the stop took effect.
    """

    def __init__(self, message: str, trials_completed: int = 0) -> None:
        super().__init__(message)
        self.trials_completed = trials_completed


class ExecutionOutcome:
    """Counters and cache statistics of one executor run."""

    def __init__(
        self,
        ops_applied: int,
        num_trials: int,
        cache_stats: CacheStats,
        finish_calls: int,
        ops_shared: int = 0,
    ) -> None:
        self.ops_applied = ops_applied
        self.num_trials = num_trials
        self.cache_stats = cache_stats
        self.finish_calls = finish_calls
        #: Plan operations *not* executed because a cross-job
        #: :class:`~repro.core.shared.SharedPrefixStore` supplied the
        #: state; ``ops_applied + ops_shared`` equals the plan's
        #: ``planned_operations``.
        self.ops_shared = ops_shared

    @property
    def peak_msv(self) -> int:
        return self.cache_stats.peak_msv

    @property
    def peak_stored(self) -> int:
        return self.cache_stats.peak_stored

    def __repr__(self) -> str:
        return (
            f"ExecutionOutcome(ops={self.ops_applied}, "
            f"trials={self.num_trials}, peak_msv={self.peak_msv})"
        )

    @classmethod
    def from_trace(cls, recorder) -> "ExecutionOutcome":
        """Re-derive an outcome purely from a recorded run's events.

        The result must equal the outcome the executor computed live —
        that equality is the observability layer's correctness pin (see
        :func:`repro.obs.summary.verify_trace`).
        """
        from ..obs.summary import outcome_from_trace

        return outcome_from_trace(recorder)


def _record_run_meta(
    recorder,
    mode: str,
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    num_instructions: Optional[int] = None,
) -> None:
    """Emit the ``run.meta`` instant that makes a trace self-describing."""
    args = {
        "mode": mode,
        "num_trials": len(trials),
        "num_distinct_trials": len(set(trials)),
        "num_layers": layered.num_layers,
        "num_gates": layered.num_gates,
        "baseline_ops": baseline_operation_count(layered, trials),
    }
    if num_instructions is not None:
        args["num_instructions"] = num_instructions
    recorder.instant("run.meta", cat="run", **args)


class _SpillArea:
    """Lazy scratch directory for spilled snapshot amplitudes.

    Spill files are transient scratch, not durability (that is the run
    journal's job): on a clean finish every file has been reloaded and
    unlinked; a temp directory we created is removed even on error.
    """

    def __init__(self, budget: CacheBudget) -> None:
        self._dir = budget.spill_dir
        self._created = False
        self._serial = 0

    def allocate(self, slot: int, layer: int) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-spill-")
            self._created = True
        elif not os.path.isdir(self._dir):
            os.makedirs(self._dir, exist_ok=True)
        self._serial += 1
        return os.path.join(
            self._dir, f"snapshot-{self._serial:04d}-s{slot}-l{layer}.c128"
        )

    def cleanup(self) -> None:
        if self._created and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)


def _enforce_budget(
    cache: StateCache,
    backend: SimulationBackend,
    budget: CacheBudget,
    spill_area: _SpillArea,
    recorder,
) -> None:
    """Degrade coldest resident snapshots until the budget is met."""
    while cache.over_budget:
        slot = cache.coldest_resident_slot()
        if slot is None:  # pragma: no cover - over_budget implies resident
            break
        state, layer = cache.peek(slot)
        vector = getattr(state, "vector", None)
        if vector is None:
            raise ScheduleError(
                "cache budgets require a statevector-family backend "
                "(snapshot states must expose .vector)"
            )
        if budget.mode == "drop":
            cache.mark_dropped(slot)
            backend.release_state(state)
            if recorder:
                recorder.instant("cache.drop", cat="cache", slot=slot, layer=layer)
                recorder.counter("cache.drop", 1)
        elif budget.mode == "spill":
            path = spill_area.allocate(slot, layer)
            flat = np.ascontiguousarray(vector)
            flat.tofile(path)
            cache.mark_spilled(slot, path, payload_checksum(flat))
            backend.release_state(state)
            if recorder:
                recorder.instant("cache.spill", cat="cache", slot=slot, layer=layer)
                recorder.counter("cache.spill", 1)
        else:
            raise ScheduleError(
                f"unknown cache degradation mode {budget.mode!r} "
                "(expected 'spill' or 'drop')"
            )


def _recompute_snapshot(
    backend: SimulationBackend,
    layered: LayeredCircuit,
    events: Sequence[Any],
    layer: int,
):
    """Rebuild a dropped snapshot from its event provenance.

    Replays the exact advance/inject boundary sequence the original prefix
    walk used (advance to each event's layer, inject, final advance to the
    snapshot layer), so segment memoization and kernel fusion see the same
    segment boundaries and the rebuilt amplitudes are bit-identical.
    """
    state = backend.make_initial()
    cursor = 0
    for event in events:
        target = event.layer + 1
        if target > cursor:
            backend.apply_layers(state, cursor, target)
            cursor = target
        backend.apply_operator(state, event.gate, (event.qubit,))
    if layer > cursor:
        backend.apply_layers(state, cursor, layer)
    return state


def _restore_degradable(
    cache: StateCache,
    backend: SimulationBackend,
    layered: LayeredCircuit,
    slot: int,
    recorder,
) -> Tuple[Any, int, Tuple[Any, ...]]:
    """Take a slot that may hold a degraded stub; rehydrate if needed."""
    entry, layer, provenance = cache.take_full(slot)
    events = provenance or ()
    if isinstance(entry, SpilledSnapshot):
        vector = np.fromfile(entry.path, dtype=np.complex128)
        if payload_checksum(vector) != entry.checksum:
            raise CorruptionError(
                f"spilled snapshot {entry.path!r} failed its checksum"
            )
        os.unlink(entry.path)
        state = backend.adopt_state(
            Statevector.from_buffer(vector, layered.num_qubits)
        )
        cache.note_spill_load()
        if recorder:
            recorder.instant("cache.spill.load", cat="cache", slot=slot, layer=layer)
            recorder.counter("cache.spill.load", 1)
    elif isinstance(entry, DroppedSnapshot):
        ops_before = backend.ops_applied
        state = _recompute_snapshot(backend, layered, entry.provenance, layer)
        cache.note_recompute()
        if recorder:
            ops_delta = backend.ops_applied - ops_before
            recorder.instant(
                "cache.recompute", cat="cache", slot=slot, layer=layer,
                ops=ops_delta,
            )
            recorder.counter("ops.applied", ops_delta)
            recorder.counter("cache.recompute", 1)
    else:
        state = entry
    return state, layer, events


def run_optimized(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend: SimulationBackend,
    on_finish: Optional[FinishCallback] = None,
    plan: Optional[ExecutionPlan] = None,
    check: bool = False,
    recorder=None,
    entry_state=None,
    entry_layer: int = 0,
    entry_events: Tuple = (),
    cache_budget: Optional[CacheBudget] = None,
    shared: Optional[SharedPrefixStore] = None,
    stop=None,
) -> ExecutionOutcome:
    """Execute ``trials`` with prefix-state reuse.

    Parameters
    ----------
    plan:
        A prebuilt plan (must cover exactly these trials); built on demand
        otherwise.
    on_finish:
        Streaming consumer of final states.  Receives the backend's
        ``finish`` payload (a statevector for the statevector backend,
        ``None`` for the counting backend) and the tuple of original trial
        indices sharing that state.  When the working state is dropped
        right after a ``Finish`` (next instruction is a ``Restore``, or the
        plan ends — true for every ``Finish`` the planner emits) the
        payload *borrows* the working state via ``backend.finish_view``
        instead of copying it; callbacks that retain payloads past the
        call must copy them.
    check:
        Run the static plan sanitizer (:func:`repro.lint.sanitize_plan`)
        before touching the backend: slot discipline, layer alignment and
        per-trial event exactness are proven up front, so a bad plan fails
        fast instead of mid-run with statevectors allocated.
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder`.  Falsy
        recorders (``None`` or :class:`~repro.obs.recorder.NullRecorder`)
        cost one truthiness check per plan instruction and nothing else.
    entry_state / entry_layer / entry_events:
        Resume execution from a mid-circuit state instead of ``|0...0>``:
        ``entry_state`` (adopted via ``backend.adopt_state``) is a state
        already advanced to ``entry_layer`` with ``entry_events`` injected.
        This is how parallel workers replay a sub-plan cut out of a larger
        plan (:mod:`repro.core.parallel`); the plan's instructions must
        start from ``entry_layer`` and the sanitizer (``check=True``)
        verifies trial exactness against the *full* event histories.
    cache_budget:
        Optional :class:`~repro.core.cache.CacheBudget` capping the
        resident statevector bytes; snapshots beyond the budget are
        spilled to disk or dropped-and-recomputed (statevector-family
        backends only).  Results and nominal peak-MSV accounting are
        unchanged; ``CacheStats`` reports the degradation counters and the
        resident peaks.
    shared:
        Optional cross-job :class:`~repro.core.shared.SharedPrefixStore`.
        Before each ``Advance`` the executor probes the store with the
        working state's provenance key extended by that advance; on a hit
        it adopts the cached amplitudes (bit-identical by key equality —
        see :mod:`repro.core.shared`) and counts the skipped gates into
        ``ops_shared`` instead of executing them.  Prefix states are
        published at every ``Snapshot`` and ``Finish``.  Requires a
        statevector-family backend and is ignored (with exact results)
        when ``entry_state`` is set, since a mid-circuit entry state has
        no provenance key.
    stop:
        Optional ``threading.Event``-like object polled once per plan
        instruction; when set, the run raises :class:`RunInterrupted`
        after releasing its states.  Every finish delivered before the
        interrupt is complete and in order, so a journal tee remains a
        valid resume prefix.
    """
    if plan is None:
        plan = build_plan(layered, trials)
    if plan.num_trials != len(trials):
        raise ScheduleError(
            f"plan covers {plan.num_trials} trials, got {len(trials)}"
        )
    if check:
        plan.validate(
            trials=trials,
            layered=layered,
            entry_layer=entry_layer,
            entry_events=entry_events,
        )

    backend.reset_counter()
    backend.set_recorder(recorder)
    state_bytes = 16 * (1 << layered.num_qubits)
    cache = StateCache(
        recorder=recorder, budget=cache_budget, state_bytes=state_bytes
    )
    if recorder:
        _record_run_meta(
            recorder, "optimized", layered, trials, num_instructions=len(plan)
        )
        recorder.begin("run", cat="run")
    finish_calls, ops_shared = _walk(
        layered, plan.instructions, backend, cache, on_finish=on_finish,
        recorder=recorder, entry_state=entry_state, entry_layer=entry_layer,
        entry_events=entry_events, shared=shared, stop=stop,
    )
    outcome = ExecutionOutcome(
        ops_applied=backend.ops_applied,
        num_trials=len(trials),
        cache_stats=cache.stats(),
        finish_calls=finish_calls,
        ops_shared=ops_shared,
    )
    if recorder:
        recorder.end(
            "run",
            cat="run",
            ops_applied=outcome.ops_applied,
            peak_msv=outcome.peak_msv,
            finish_calls=outcome.finish_calls,
        )
    return outcome


def _walk(
    layered: LayeredCircuit,
    instructions: Sequence[Any],
    backend: SimulationBackend,
    cache: StateCache,
    on_finish: Optional[FinishCallback] = None,
    recorder=None,
    entry_state=None,
    entry_layer: int = 0,
    entry_events: Tuple = (),
    shared: Optional[SharedPrefixStore] = None,
    stop=None,
) -> Tuple[int, int]:
    """Depth-first walk of one instruction stream over dense states.

    The loop behind :func:`run_optimized` and the parallel prefix phase:
    Advance/Snapshot/Inject/Restore/Finish keep each state until its last
    use, and an ``EmitTask`` (prefix only, ``cache`` is then the
    partition's prefix cache) copies the working state into the task's
    entry row and consumes it like a ``Finish``.  Degrades snapshots under
    ``cache.budget``; drains ``cache`` before returning
    ``(finish_calls, ops_shared)``.
    """
    cache_budget = cache.budget
    track_provenance = cache_budget is not None
    working_events: List[Any] = list(entry_events) if track_provenance else []
    spill_area = _SpillArea(cache_budget) if cache_budget is not None else None
    if entry_state is None:
        working = backend.make_initial()
        working_layer = 0
    else:
        working = backend.adopt_state(entry_state)
        working_layer = entry_layer
    cache.working_created()
    finish_calls = 0
    trials_done = 0
    ops_shared = 0
    working_moved = False  # working was moved into the cache (no copy taken)

    # Cross-job sharing needs a provenance key rooted at |0...0>; an entry
    # state resumes mid-circuit with unknown boundary history, so sharing
    # is disabled there (results are unchanged — only reuse is lost).
    share_active = shared is not None and entry_state is None
    if share_active:
        if getattr(working, "vector", None) is None:
            raise ScheduleError(
                "shared prefix store requires a statevector-family backend "
                "(states must expose .vector)"
            )
        fingerprint = circuit_fingerprint(layered)
        working_steps: Tuple[Any, ...] = ()
        slot_steps: Dict[int, Tuple[Any, ...]] = {}

    try:
        for index, instr in enumerate(instructions):
            if stop is not None and stop.is_set():
                backend.release_state(working)
                raise RunInterrupted(
                    "optimized run interrupted by stop request",
                    trials_completed=trials_done,
                )
            if isinstance(instr, Advance):
                if instr.start_layer != working_layer:
                    raise ScheduleError(
                        f"advance from layer {instr.start_layer} but working "
                        f"state is at layer {working_layer}"
                    )
                if share_active:
                    candidate = working_steps + (
                        advance_step(instr.start_layer, instr.end_layer),
                    )
                    fetched = shared.fetch(fingerprint, candidate)
                    if fetched is not None:
                        # Another job already computed this exact segment
                        # sequence; adopt its amplitudes instead of
                        # re-executing.  The skipped gates go into
                        # ops_shared, never ops_applied.
                        gates = layered.gates_between(
                            instr.start_layer, instr.end_layer
                        )
                        backend.release_state(working)
                        working = backend.adopt_state(
                            Statevector.from_buffer(
                                fetched, layered.num_qubits
                            )
                        )
                        working_layer = instr.end_layer
                        working_steps = candidate
                        ops_shared += gates
                        shared.note_saved(gates)
                        if recorder:
                            recorder.instant(
                                "shared.hit",
                                cat="shared",
                                start=instr.start_layer,
                                end=instr.end_layer,
                                gates=gates,
                            )
                            recorder.counter("ops.shared", gates)
                        continue
                    working_steps = candidate
                if recorder:
                    span = f"advance[{instr.start_layer},{instr.end_layer})"
                    gates = layered.gates_between(
                        instr.start_layer, instr.end_layer
                    )
                    recorder.begin(span, cat="segment", gates=gates)
                    backend.apply_layers(
                        working, instr.start_layer, instr.end_layer
                    )
                    recorder.end(span, cat="segment")
                    recorder.counter("ops.applied", gates)
                else:
                    backend.apply_layers(
                        working, instr.start_layer, instr.end_layer
                    )
                working_layer = instr.end_layer
            elif isinstance(instr, Snapshot):
                # Move peephole: when the very next instruction is a Restore,
                # the working state is dropped in the same plan step — the
                # stored snapshot can steal it instead of copying.  Cache
                # accounting is unchanged (it mirrors the plan's nominal
                # demand, keeping the static peak-MSV cross-check exact); only
                # the allocation and memcpy are skipped.
                moved = index + 1 < len(instructions) and isinstance(
                    instructions[index + 1], Restore
                )
                snapshot = working if moved else backend.copy_state(working)
                try:
                    assigned = cache.store(
                        snapshot,
                        working_layer,
                        slot=instr.slot,
                        provenance=(
                            tuple(working_events) if track_provenance else None
                        ),
                    )
                except RuntimeError as exc:
                    raise ScheduleError(str(exc)) from exc
                if assigned != instr.slot:
                    raise ScheduleError(
                        f"cache stored snapshot in slot {assigned}, plan "
                        f"expected slot {instr.slot}"
                    )
                working_moved = moved
                if recorder:
                    recorder.instant(
                        "cache.store",
                        cat="cache",
                        slot=assigned,
                        layer=working_layer,
                        moved=moved,
                    )
                    if moved:
                        recorder.counter("cache.store.moved", 1)
                if share_active:
                    # Publish before budget enforcement can spill this very
                    # snapshot out from under us.
                    slot_steps[instr.slot] = working_steps
                    if shared.publish(
                        fingerprint, working_steps, snapshot.vector,
                        working_layer,
                    ) and recorder:
                        recorder.counter("shared.publish", 1)
                if cache_budget is not None:
                    _enforce_budget(
                        cache, backend, cache_budget, spill_area, recorder
                    )
            elif isinstance(instr, Inject):
                event = instr.event
                if event.layer + 1 != working_layer:
                    raise ScheduleError(
                        f"inject {event} at working layer {working_layer}"
                    )
                backend.apply_operator(working, event.gate, (event.qubit,))
                if track_provenance:
                    working_events.append(event)
                if share_active:
                    working_steps = working_steps + (inject_step(event),)
                if recorder:
                    recorder.instant(
                        "inject",
                        cat="exec",
                        layer=event.layer,
                        qubit=event.qubit,
                        pauli=event.pauli,
                    )
                    recorder.counter("ops.applied", 1)
            elif isinstance(instr, Restore):
                if working_moved:
                    # The working state lives on inside the cache (snapshot
                    # move); there is nothing to release.
                    working_moved = False
                else:
                    backend.release_state(working)
                cache.working_destroyed()
                if cache_budget is None:
                    working, working_layer = cache.take(instr.slot)
                else:
                    working, working_layer, restored_events = (
                        _restore_degradable(
                            cache, backend, layered, instr.slot, recorder
                        )
                    )
                    working_events = list(restored_events)
                if share_active:
                    working_steps = slot_steps.pop(instr.slot)
                cache.working_created()
                if recorder:
                    recorder.instant(
                        "cache.hit",
                        cat="cache",
                        slot=instr.slot,
                        layer=working_layer,
                        evict=True,
                    )
            elif isinstance(instr, Finish):
                if working_layer != layered.num_layers:
                    raise ScheduleError(
                        f"finish at layer {working_layer}, circuit has "
                        f"{layered.num_layers} layers"
                    )
                finish_calls += 1
                # Borrow peephole: the planner always drops the working state
                # right after a Finish (next instruction is a Restore, or the
                # plan ends), so the payload can borrow it instead of copying.
                # Guarded on the actual plan shape so hand-built plans that
                # keep using the state still get an independent copy.
                borrowed = index + 1 >= len(instructions) or isinstance(
                    instructions[index + 1], Restore
                )
                if share_active:
                    # Publish the leaf state too: an identical concurrent
                    # job then skips even its final segments.
                    if shared.publish(
                        fingerprint, working_steps, working.vector,
                        working_layer,
                    ) and recorder:
                        recorder.counter("shared.publish", 1)
                if on_finish is not None:
                    payload = (
                        backend.finish_view(working)
                        if borrowed
                        else backend.finish(working)
                    )
                    on_finish(payload, instr.trial_indices)
                if recorder:
                    recorder.instant(
                        "finish",
                        cat="exec",
                        trials=len(instr.trial_indices),
                        moved=borrowed,
                    )
                    recorder.counter(
                        "trials.finished", len(instr.trial_indices)
                    )
                    if borrowed:
                        recorder.counter("finish.moved", 1)
                trials_done += len(instr.trial_indices)
            elif isinstance(instr, EmitTask):
                np.copyto(cache.entries[instr.task_id], working.vector)
                if index + 1 == len(instructions):
                    # The prefix ends here: free the working state before
                    # the entry row is counted, so the two never overlap.
                    backend.release_state(working)
                    cache.working_destroyed()
                    working = None
                cache.emit(instr.task_id, working_layer)
            else:  # pragma: no cover - exhaustive over instruction kinds
                raise ScheduleError(f"unknown plan instruction {instr!r}")
    finally:
        if spill_area is not None:
            spill_area.cleanup()

    if working is not None:
        backend.release_state(working)
        cache.working_destroyed()
    cache.assert_drained()
    return finish_calls, ops_shared


def run_baseline(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    backend: SimulationBackend,
    on_finish: Optional[FinishCallback] = None,
    recorder=None,
    stop=None,
) -> ExecutionOutcome:
    """Execute every trial independently from scratch (no reuse, no reorder).

    This is the widely adopted straightforward Monte-Carlo strategy: one
    full circuit pass per trial, errors injected inline, only the final
    result kept.  ``on_finish`` is called once per trial.  With a
    ``recorder`` attached each trial becomes one contiguous span (the
    baseline is the one strategy where trials are not interleaved).
    """
    backend.reset_counter()
    backend.set_recorder(recorder)
    # Used only for uniform accounting (peak_msv == 1).
    cache = StateCache(recorder=recorder)
    if recorder:
        _record_run_meta(recorder, "baseline", layered, trials)
        recorder.begin("run", cat="run")

    for index, trial in enumerate(trials):
        if stop is not None and stop.is_set():
            raise RunInterrupted(
                "baseline run interrupted by stop request",
                trials_completed=index,
            )
        if recorder:
            recorder.begin(f"trial[{index}]", cat="trial", errors=trial.num_errors)
        state = backend.make_initial()
        cache.working_created()
        cursor = 0
        ops_before = backend.ops_applied
        for event in trial.events:
            target = event.layer + 1
            if target > cursor:
                backend.apply_layers(state, cursor, target)
                cursor = target
            backend.apply_operator(state, event.gate, (event.qubit,))
            if recorder:
                recorder.instant(
                    "inject",
                    cat="exec",
                    layer=event.layer,
                    qubit=event.qubit,
                    pauli=event.pauli,
                )
        if layered.num_layers > cursor:
            backend.apply_layers(state, cursor, layered.num_layers)
        if on_finish is not None:
            payload = backend.finish(state)
            on_finish(payload, (index,))
        backend.release_state(state)
        cache.working_destroyed()
        if recorder:
            recorder.counter("ops.applied", backend.ops_applied - ops_before)
            recorder.instant("finish", cat="exec", trials=1)
            recorder.counter("trials.finished", 1)
            recorder.end(f"trial[{index}]", cat="trial")

    cache.assert_drained()
    outcome = ExecutionOutcome(
        ops_applied=backend.ops_applied,
        num_trials=len(trials),
        cache_stats=cache.stats(),
        finish_calls=len(trials),
    )
    if recorder:
        recorder.end(
            "run",
            cat="run",
            ops_applied=outcome.ops_applied,
            peak_msv=outcome.peak_msv,
            finish_calls=outcome.finish_calls,
        )
    return outcome


def baseline_operation_count(
    layered: LayeredCircuit, trials: Sequence[Trial]
) -> int:
    """Closed-form basic-operation count of the baseline strategy.

    ``num_trials * num_gates + total_injected_errors`` — every trial pays
    the full circuit plus its own error operators.
    """
    total_errors = sum(trial.num_errors for trial in trials)
    return len(trials) * layered.num_gates + total_errors
