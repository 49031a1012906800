"""Hybrid-soundness rule: the Clifford fast path must replay the serial plan.

:mod:`repro.core.hybrid` executes symbolic spans of a serial
:class:`~repro.core.schedule.ExecutionPlan` as Pauli-frame algebra over
shared dense anchors, materializing amplitudes only where a frame cannot
cross a segment.  The executor's bit-exactness contract rests on the
static :class:`~repro.core.hybrid.HybridSchedule` being a faithful
re-interpretation of the serial instruction stream.  P026 proves that
with an *independent* symbolic replay — same static-proof idiom as the
plan sanitizer (P001-P012) and the wavefront rule (P024):

* **action agreement** — re-walking the instructions with an independent
  frame/slot interpreter must reproduce the schedule's action tags
  instruction-for-instruction: symbolic exactly where the frame provably
  crosses the segment's compiled matrices, a materialization point
  exactly at the first failure, dense everywhere below it;
* **frame re-derivation** — the conjugated frame stored in every
  materialization/finish/emit action payload must equal the
  independently re-derived frame (phase, X and Z bit masks);
* **event conservation** — the event history carried to each symbolic
  materialization point must equal the plan's injected events along that
  trie path, in order (the plan sanitizer separately proves those match
  each finished trial);
* **ops conservation** — the nominal operation count of the annotated
  walk (advance gates + injections, symbolic or not) must equal the
  serial plan's closed-form ``planned_operations``;
* **anchor-refcount soundness** — every anchor derivation must happen
  while its parent anchor is still referenced, and every path's static
  use count must equal the replayed number of uses, so the runtime's
  eager-release discipline can never free an anchor another consumer
  still needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["lint_hybrid", "verify_schedule"]


register(
    "P026",
    "hybrid-soundness",
    Severity.ERROR,
    "plan",
    "Hybrid Clifford/Pauli-frame schedule disagrees with an independent "
    "symbolic replay of the serial plan.",
    explanation="The hybrid executor replaces dense suffix re-execution "
    "with Pauli-frame algebra over shared anchor states, and its "
    "bit-exactness guarantee (np.array_equal against the serial dense "
    "run) is only as good as the static schedule driving it.  P026 "
    "re-walks the serial instruction stream with an independent "
    "interpreter: it re-derives every Pauli frame by conjugating through "
    "the exact fused matrices the compiled kernels were built from, "
    "re-decides every symbolic/dense split (a span is symbolic only if "
    "the frame provably commutes through each matrix under exact "
    "arithmetic), and re-counts anchor uses.  The schedule must agree "
    "action-for-action: same materialization points, bitwise-equal frame "
    "payloads, the same injected-event history at every materialization, "
    "nominal operation counts equal to the serial plan's closed form, "
    "and anchor refcounts that never free a state a later consumer "
    "needs.  Any disagreement means the hybrid executor would compute "
    "something other than the serial semantics — wrong amplitudes, a "
    "skewed operation account, or a use-after-free of a shared anchor — "
    "so the run is rejected before a backend ever executes it.",
)


def _emit(
    diagnostics: List[Diagnostic],
    message: str,
    location: str,
    hint: str = "",
    config: Optional[LintConfig] = None,
) -> None:
    diagnostic = make_diagnostic(
        "P026", message, location=location, hint=hint or None, config=config
    )
    if diagnostic is not None:
        diagnostics.append(diagnostic)


def _frames_equal(a, b) -> bool:
    import numpy as np

    return (
        a.phase == b.phase
        and np.array_equal(a.x, b.x)
        and np.array_equal(a.z, b.z)
    )


def _replay(
    layered,
    instructions: Sequence[Any],
    schedule,
    problems: List[Tuple[str, str, str]],
) -> None:
    """Independent interpreter; appends ``(message, location, hint)``."""
    from ..core.hybrid import ROOT_PATH, _shadow_segment
    from ..core.schedule import Advance, EmitTask, Finish, Inject, Restore, Snapshot
    from ..sim.stabilizer import PauliFrame

    actions = schedule.actions
    if len(actions) != len(instructions):
        problems.append(
            (
                f"schedule has {len(actions)} actions for "
                f"{len(instructions)} instructions",
                "schedule",
                "",
            )
        )
        return

    shadow_cache: Dict[Tuple[int, int], Tuple] = {}

    def shadow(a: int, b: int) -> Tuple:
        key = (a, b)
        if key not in shadow_cache:
            shadow_cache[key] = _shadow_segment(layered, a, b)
        return shadow_cache[key]

    class Sym:
        __slots__ = ("path", "frame", "events")

        def __init__(self, path, frame, events):
            self.path = path
            self.frame = frame
            self.events = events

        def copy(self):
            return Sym(self.path, self.frame.copy(), self.events)

    DENSE = "dense"
    working: Any = Sym(ROOT_PATH, PauliFrame(layered.num_qubits), ())
    slots: Dict[int, Any] = {}
    seen_paths = {ROOT_PATH}
    replay_uses: Dict[Tuple[int, ...], int] = {ROOT_PATH: 0}
    nominal_ops = 0

    def use(path):
        replay_uses[path] = replay_uses.get(path, 0) + 1

    for index, (instr, action) in enumerate(zip(instructions, actions)):
        kind = action[0]
        where = f"instruction {index}"
        if isinstance(instr, Advance):
            gates = layered.gates_between(instr.start_layer, instr.end_layer)
            nominal_ops += gates
            if working is DENSE:
                if kind != "advance-dense":
                    problems.append(
                        (
                            f"dense working state but action is {kind}",
                            where,
                            "everything below a materialization point "
                            "must stay dense until the enclosing Restore",
                        )
                    )
                    return
                continue
            if working.frame.is_identity:
                crossed: Optional[PauliFrame] = working.frame.copy()
            else:
                trial = working.frame.copy()
                crossed = trial
                for matrix, qubits in shadow(
                    instr.start_layer, instr.end_layer
                ):
                    if not trial.try_conjugate_matrix(matrix, qubits):
                        crossed = None
                        break
            if crossed is None:
                if kind != "advance-mat":
                    problems.append(
                        (
                            f"frame cannot cross segment "
                            f"[{instr.start_layer},{instr.end_layer}) but "
                            f"action is {kind}",
                            where,
                            "a frame that fails the exact commutation "
                            "check must force a materialization point",
                        )
                    )
                    return
                _, path, frame, events = action
                if path != working.path:
                    problems.append(
                        (
                            f"materialization anchored at {path}, replay "
                            f"is at {working.path}",
                            where,
                            "",
                        )
                    )
                    return
                if not _frames_equal(frame, working.frame):
                    problems.append(
                        (
                            "materialization frame differs from the "
                            "re-derived frame",
                            where,
                            "the payload frame decides the amplitudes — "
                            "a mismatch is a wrong result, not a style "
                            "issue",
                        )
                    )
                    return
                if tuple(events) != tuple(working.events):
                    problems.append(
                        (
                            f"materialization event history {events} != "
                            f"replayed {working.events}",
                            where,
                            "",
                        )
                    )
                    return
                use(working.path)
                working = DENSE
                continue
            if kind != "advance-sym":
                problems.append(
                    (
                        f"frame crosses segment "
                        f"[{instr.start_layer},{instr.end_layer}) but "
                        f"action is {kind}",
                        where,
                        "a provably-crossable span must stay symbolic or "
                        "the schedule's cost claims are wrong",
                    )
                )
                return
            _, parent, new_path, derive = action
            expected = working.path + (instr.end_layer,)
            if parent != working.path or new_path != expected:
                problems.append(
                    (
                        f"advance maps path {parent} -> {new_path}, replay "
                        f"expects {working.path} -> {expected}",
                        where,
                        "",
                    )
                )
                return
            if derive != (new_path not in seen_paths):
                problems.append(
                    (
                        f"derive flag {derive} but path {new_path} "
                        f"{'already' if new_path in seen_paths else 'never'} "
                        "seen",
                        where,
                        "a wrong derive flag double-derives or skips an "
                        "anchor",
                    )
                )
                return
            if derive:
                if working.path not in replay_uses:
                    problems.append(
                        (
                            f"deriving {new_path} from unknown parent "
                            f"{working.path}",
                            where,
                            "",
                        )
                    )
                    return
                use(working.path)
                seen_paths.add(new_path)
                replay_uses.setdefault(new_path, 0)
            working = Sym(new_path, crossed, working.events)
        elif isinstance(instr, Snapshot):
            expected_kind = (
                "snapshot-dense" if working is DENSE else "snapshot-sym"
            )
            if kind != expected_kind:
                problems.append(
                    (f"expected {expected_kind}, schedule has {kind}", where, "")
                )
                return
            slots[instr.slot] = (
                DENSE if working is DENSE else working.copy()
            )
        elif isinstance(instr, Inject):
            nominal_ops += 1
            if working is DENSE:
                if kind != "inject-dense":
                    problems.append(
                        (f"expected inject-dense, schedule has {kind}", where, "")
                    )
                    return
            else:
                if kind != "inject-sym":
                    problems.append(
                        (f"expected inject-sym, schedule has {kind}", where, "")
                    )
                    return
                event = instr.event
                frame = working.frame.copy()
                frame.inject(event.pauli, event.qubit)
                working = Sym(
                    working.path, frame, working.events + (event,)
                )
        elif isinstance(instr, Restore):
            if instr.slot not in slots:
                problems.append(
                    (f"restore of unknown slot {instr.slot}", where, "")
                )
                return
            restored = slots.pop(instr.slot)
            expected_kind = (
                "restore-dense" if restored is DENSE else "restore-sym"
            )
            if kind != expected_kind:
                problems.append(
                    (f"expected {expected_kind}, schedule has {kind}", where, "")
                )
                return
            working = restored
        elif isinstance(instr, (Finish, EmitTask)):
            tag = "finish" if isinstance(instr, Finish) else "emit"
            expected_kind = f"{tag}-dense" if working is DENSE else f"{tag}-sym"
            if kind != expected_kind:
                problems.append(
                    (f"expected {expected_kind}, schedule has {kind}", where, "")
                )
                return
            if working is not DENSE:
                _, path, frame = action
                if path != working.path:
                    problems.append(
                        (
                            f"{tag} anchored at {path}, replay is at "
                            f"{working.path}",
                            where,
                            "",
                        )
                    )
                    return
                if not _frames_equal(frame, working.frame):
                    problems.append(
                        (
                            f"{tag} frame differs from the re-derived frame",
                            where,
                            "the payload frame decides the amplitudes",
                        )
                    )
                    return
                use(working.path)
        else:
            problems.append(
                (f"unknown instruction {instr!r}", where, "")
            )
            return

    # ---- conservation checks over the whole stream ----------------------
    if nominal_ops != schedule.stats["planned_ops"]:
        problems.append(
            (
                f"schedule claims {schedule.stats['planned_ops']} planned "
                f"ops, serial closed form gives {nominal_ops}",
                "schedule",
                "nominal accounting must be invariant under the hybrid "
                "switch",
            )
        )
    for path, count in schedule.path_uses.items():
        replayed = replay_uses.get(path)
        if replayed is None:
            problems.append(
                (
                    f"schedule references anchor path {path} the replay "
                    "never visits",
                    "schedule",
                    "",
                )
            )
        elif replayed != count:
            problems.append(
                (
                    f"anchor {path} has static use count {count}, replay "
                    f"counts {replayed}",
                    "schedule",
                    "a high count strands memory; a low count frees an "
                    "anchor a later consumer still needs",
                )
            )


def verify_schedule(layered, instructions, schedule) -> List[str]:
    """Replay-check a hybrid schedule; returns problem strings (empty = ok).

    Convenience wrapper used by ``run_hybrid(check=True)`` — same proof
    as :func:`lint_hybrid` without diagnostic plumbing.
    """
    problems: List[Tuple[str, str, str]] = []
    _replay(layered, instructions, schedule, problems)
    return [f"P026 {where}: {message}" for message, where, _ in problems]


def lint_hybrid(
    layered,
    plan,
    schedule=None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P026``: prove a hybrid schedule replays the serial plan.

    ``plan`` is the serial :class:`~repro.core.schedule.ExecutionPlan`;
    ``schedule`` the :class:`~repro.core.hybrid.HybridSchedule` derived
    from it (re-derived via ``classify_plan`` when omitted, in which case
    the rule certifies the classifier against itself plus all
    conservation invariants).  Runs statically — no backend, no
    amplitudes — by conjugating frames through the exact fused matrices
    the compiled kernels apply.
    """
    from ..core.hybrid import classify_plan

    if schedule is None:
        schedule = classify_plan(layered, plan)
    problems: List[Tuple[str, str, str]] = []
    _replay(layered, plan.instructions, schedule, problems)
    diagnostics: List[Diagnostic] = []
    for message, where, hint in problems:
        _emit(diagnostics, message, where, hint=hint, config=config)
    info = {
        "stats": dict(schedule.stats),
        "anchors": schedule.stats["anchors"],
        "materializations": schedule.stats["materializations"],
        "active": schedule.active,
    }
    return LintResult(diagnostics, info=info)
