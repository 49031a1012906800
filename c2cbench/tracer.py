"""Outside-in layer tracer: wraps public functions, changes nothing in ``repro``.

:class:`LayerTracer` is a context manager.  On entry it replaces each
traced function or method with a timing wrapper, in every ``repro``
module namespace that holds it (``from .x import f`` copies the name, so
the defining module alone is not enough); on exit it puts every original
object back.  A wrapper appends ``(layer, start, end)`` to an in-memory
list and feeds a few counters; nothing is written until the run ends.

Self time.  Spans from several threads can be open at once (the serving
tier runs a job on its execution thread while the caller blocks in
``ServeClient.wait``), so self time is attributed by one rule that also
reduces to the usual nesting rule in a single thread: each instant of a
job's wall-clock window belongs to the open span that started last.  An
instant with no open span is unattributed; ``coverage`` is the
attributed share of the window.
"""

from __future__ import annotations

import heapq
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# -- result hooks: counters read from what traced calls return


def _after_sample(tracer: "LayerTracer", args: tuple, trials: Any, start: float) -> None:
    tracer.counters["sampling.trials"] += len(trials)
    tracer.counters["sampling.events"] += sum(len(t.events) for t in trials)


def _after_plan(tracer: "LayerTracer", args: tuple, plan: Any, start: float) -> None:
    from repro.core.schedule import Finish, Restore, Snapshot

    tracer.counters["plan.trials"] += plan.num_trials
    tracer.counters["plan.payloads"] += plan.count(Finish)
    tracer.counters["cache.stores"] += plan.count(Snapshot)
    tracer.counters["cache.restores"] += plan.count(Restore)


def _after_segment(tracer: "LayerTracer", args: tuple, program: Any, start: float) -> None:
    tracer.counters["segment.calls"] += 1
    tracer.compiled[id(args[0])] = args[0]


def _after_record(tracer: "LayerTracer", args: tuple, result: Any, start: float) -> None:
    tracer.counters["journal.records"] += 1
    tracer.journals[args[0].path] = None


def _after_fetch(tracer: "LayerTracer", args: tuple, state: Any, start: float) -> None:
    tracer.counters["shared.fetches"] += 1
    if state is not None:
        tracer.counters["shared.hits"] += 1
    tracer.stores[id(args[0])] = args[0]


def _after_admission(tracer: "LayerTracer", args: tuple, result: Any, start: float) -> None:
    tracer.admitted[args[1].job_id] = time.perf_counter()


def _after_execute(tracer: "LayerTracer", args: tuple, payload: Any, start: float) -> None:
    tracer.exec_spans[args[0].job_id] = (start, time.perf_counter())
    tracer.counters["serve.retries"] += max(0, int(payload.get("attempts", 1)) - 1)


#: (module, function, layer, result hook) of every traced module-level
#: function; each is patched wherever ``repro`` imported it by name.
FUNCTIONS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.noise.sampling", "sample_trials", "sampling", _after_sample),
    ("repro.core.schedule", "build_plan", "plan", _after_plan),
    ("repro.core.executor", "run_optimized", "execute.serial", None),
    ("repro.core.hybrid", "run_hybrid", "execute.hybrid", None),
    ("repro.core.wavefront", "run_wavefront", "execute.wavefront", None),
    ("repro.core.resilience", "run_journaled", "journal", None),
    ("repro.core.metrics", "compute_metrics", "runner", None),
    ("repro.sim.measurement", "apply_readout_flips", "readout", None),
    ("repro.serve.jobs", "execute_job", "serve", _after_execute),
)

#: (module, class, method, layer, result hook) of every traced method.
METHODS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.core.runner", "NoisySimulator", "__init__", "runner", None),
    ("repro.core.runner", "NoisySimulator", "run", "runner", None),
    ("repro.sim.compiled", "CompiledCircuit", "segment", "segment", _after_segment),
    ("repro.sim.backend", "StatevectorBackend", "sample_clbits", "readout", None),
    ("repro.core.resilience", "RunJournal", "record", "journal", _after_record),
    ("repro.core.shared", "SharedPrefixStore", "fetch", "shared", _after_fetch),
    ("repro.core.shared", "SharedPrefixStore", "publish", "shared", None),
    ("repro.serve.jobs", "JobSpec", "from_dict", "serve", None),
    ("repro.serve.jobs", "JobStore", "admit", "serve", None),
    ("repro.serve.jobs", "JobStore", "commit_result", "serve", None),
    ("repro.serve.admission", "AdmissionController", "submit", "serve", _after_admission),
    ("repro.serve.client", "ServeClient", "submit", "serve.client", None),
    ("repro.serve.client", "ServeClient", "wait", "serve.client", None),
)

#: Kernel classes whose own ``apply`` / ``apply_batch`` are traced; the
#: layer is ``kernel.<kind>``.
KERNEL_CLASSES = ("DiagonalKernel", "PermutationKernel", "ControlledKernel", "DenseKernel")


class LayerTracer:
    """Patch on entry, restore on exit; collect spans and counters."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Per-job facts keyed by job id (serving tier) for queue waits.
        self.admitted: Dict[str, float] = {}
        self.exec_spans: Dict[str, Tuple[float, float]] = {}
        self.compiled: Dict[int, Any] = {}
        self.stores: Dict[int, Any] = {}
        self.journals: Dict[str, None] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerTracer":
        import importlib

        try:
            for module_name, name, layer, hook in FUNCTIONS:
                original = getattr(importlib.import_module(module_name), name)
                wrapper = self._wrap(original, layer, hook)
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if (
                        namespace is not None
                        and getattr(module, "__name__", "").startswith("repro")
                        and namespace.get(name) is original
                    ):
                        self._set(module, name, wrapper)
            for module_name, class_name, method, layer, hook in METHODS:
                owner = getattr(importlib.import_module(module_name), class_name)
                original = vars(owner)[method]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, layer, hook))
                else:
                    wrapper = self._wrap(original, layer, hook)
                self._set(owner, method, wrapper)
            kernels = importlib.import_module("repro.sim.kernels")
            for class_name in KERNEL_CLASSES:
                owner = getattr(kernels, class_name)
                for method in ("apply", "apply_batch"):
                    if method in vars(owner):
                        self._set(owner, method, self._wrap_kernel(vars(owner)[method]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, name, original, had = self._patches.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, original: Callable, layer: str, after: Optional[Callable]) -> Callable:
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                counters["raised." + type(exc).__name__] += 1
                raise
            finally:
                spans.append((layer, start, clock()))
            if after is not None:
                after(tracer, args, result, start)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def _wrap_kernel(self, original: Callable) -> Callable:
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter

        def traced(kernel: Any, tensor: Any, scratch: Any) -> Any:
            start = clock()
            try:
                return original(kernel, tensor, scratch)
            finally:
                layer = "kernel." + kernel.kind
                spans.append((layer, start, clock()))
                counters[layer + ".calls"] += 1
                counters[layer + ".amps"] += tensor.size
                # Computed, not measured: one read and one write of the
                # amplitudes the kernel was handed.
                counters[layer + ".computed_bytes"] += 2 * tensor.nbytes

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- per-job attribution -----------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def attribute(self, first_span: int, start: float, end: float) -> Tuple[Dict[str, float], float]:
        """Self time per layer over ``[start, end]``, and the unattributed rest."""
        return attribute(self.spans[first_span:], start, end)


def attribute(
    spans: List[Tuple[str, float, float]], start: float, end: float
) -> Tuple[Dict[str, float], float]:
    """Latest-started-open-span attribution of the window ``[start, end]``."""
    clipped = sorted(
        (max(s, start), -min(e, end), layer)
        for layer, s, e in spans
        if e > start and s < end
    )
    bounds = {start, end}
    for s, neg_e, _ in clipped:
        bounds.add(s)
        bounds.add(-neg_e)
    points = sorted(bounds)
    selfs: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    heap: List[Tuple[float, int, float, str]] = []
    nxt = 0
    for a, b in zip(points, points[1:]):
        while nxt < len(clipped) and clipped[nxt][0] <= a:
            s, neg_e, layer = clipped[nxt]
            heapq.heappush(heap, (-s, -nxt, -neg_e, layer))
            nxt += 1
        while heap and heap[0][2] <= a:
            heapq.heappop(heap)
        if heap:
            selfs[heap[0][3]] += b - a
        else:
            unattributed += b - a
    return dict(selfs), unattributed


def stored_bytes(tracer: LayerTracer) -> Dict[str, int]:
    """Bytes the traced calls left behind: journal files and shared states."""
    journal = 0
    for path in tracer.journals:
        try:
            journal += os.path.getsize(path)
        except OSError:
            pass
    shared = sum(store.stats().resident_bytes for store in tracer.stores.values())
    return {"journal.bytes": journal, "shared.bytes": shared}
