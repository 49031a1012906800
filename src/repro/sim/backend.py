"""The execution-backend protocol shared by real and counting simulation.

The trial-reordering scheduler (:mod:`repro.core.schedule`) is written once
against this small protocol and runs unchanged on two backends:

* :class:`~repro.sim.statevector_backend.StatevectorBackend` — real numpy
  amplitudes; ``finish`` returns the per-trial final state, so results can be
  compared bit-for-bit against baseline re-execution.
* :class:`~repro.sim.counting.CountingBackend` — no amplitudes at all;
  segment costs are added in closed form from per-layer gate counts, which is
  what makes the paper's 40-qubit scalability study (Figs. 7–8) runnable.

Every backend keeps an operation counter with the paper's metric: one unit
per matrix-vector multiplication, i.e. per gate application and per injected
error operator.  Measurements and classical bit flips are free.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence

import numpy as np

from ..circuits.gates import Gate
from ..circuits.layers import LayeredCircuit
from .measurement import sample_measurements, sample_measurements_batch
from .statevector import Statevector, require_state_layout

__all__ = ["SimulationBackend", "StatevectorBackend"]


class SimulationBackend(abc.ABC):
    """Abstract state factory + evolver with basic-operation accounting."""

    def __init__(self, layered: LayeredCircuit) -> None:
        self.layered = layered
        self.ops_applied = 0
        #: Optional :class:`~repro.obs.recorder.TraceRecorder`; attached by
        #: the executor at run start.  Backends that instrument their hot
        #: path must guard every touch with a single ``if self.recorder:``.
        self.recorder = None

    def reset_counter(self) -> None:
        self.ops_applied = 0

    def set_recorder(self, recorder) -> None:
        """Attach (or detach, with ``None``) a trace recorder."""
        self.recorder = recorder

    # -- state lifecycle ------------------------------------------------------

    @abc.abstractmethod
    def make_initial(self) -> Any:
        """A fresh state at layer 0 (|0...0>)."""

    @abc.abstractmethod
    def copy_state(self, state: Any) -> Any:
        """An independent snapshot of ``state`` (for the prefix cache)."""

    def adopt_state(self, state: Any) -> Any:
        """Take ownership of an externally created state (live-state hook).

        The parallel executor hands each worker its sub-plan's entry state
        (deserialized from shared memory); backends that track live states
        count it here exactly as they would a ``make_initial`` state.
        """
        return state

    def release_state(self, state: Any) -> None:
        """Hook for backends that track live states; default is a no-op."""

    # -- evolution ---------------------------------------------------------------

    @abc.abstractmethod
    def apply_layers(self, state: Any, start_layer: int, end_layer: int) -> None:
        """Apply all gates in layers ``start_layer .. end_layer - 1``."""

    @abc.abstractmethod
    def apply_operator(self, state: Any, gate: Gate, qubits: Sequence[int]) -> None:
        """Apply one injected error operator (one basic operation)."""

    @abc.abstractmethod
    def finish(self, state: Any) -> Any:
        """Produce the per-trial payload from a state at the final layer."""

    def finish_view(self, state: Any) -> Any:
        """Like :meth:`finish`, but the payload may *borrow* ``state``.

        The executor calls this instead of :meth:`finish` when the working
        state is dropped immediately after the ``Finish`` instruction (the
        next instruction is a ``Restore``, or the plan ends) — the state
        will never be mutated again, so a defensive copy buys nothing.
        The payload is only guaranteed stable for backends that never
        recycle a released state's buffer; both statevector backends
        satisfy that (release is accounting-only).  Default: fall back to
        the copying :meth:`finish`.
        """
        return self.finish(state)

    def sample_clbits(
        self, payload: Any, measurements: Sequence[Any], rng: np.random.Generator
    ) -> Optional[dict]:
        """Sample one joint measurement outcome from a finish payload.

        Returns ``clbit -> bit`` or ``None`` for backends without readout
        (the counting backend).  Default: no readout.
        """
        return None

    def sample_clbits_batch(
        self,
        payload: Any,
        measurements: Sequence[Any],
        rng: np.random.Generator,
        count: int,
    ) -> List[Optional[dict]]:
        """Sample ``count`` joint outcomes from one finish payload.

        Consumes ``rng`` exactly as ``count`` successive
        :meth:`sample_clbits` calls would and returns their results in
        the same order, so callers may batch a payload's trials without
        changing any seeded result.  Maps may be shared between draws;
        copy one before mutating it.  Default: one :meth:`sample_clbits`
        call per draw (the stabilizer backend's per-trial collapse).
        """
        return [
            self.sample_clbits(payload, measurements, rng) for _ in range(count)
        ]


class StatevectorBackend(SimulationBackend):
    """Real dense statevector execution."""

    def __init__(self, layered: LayeredCircuit) -> None:
        super().__init__(layered)
        self.live_states = 0
        self.peak_live_states = 0

    def _track_new_state(self) -> None:
        self.live_states += 1
        self.peak_live_states = max(self.peak_live_states, self.live_states)

    def make_initial(self) -> Statevector:
        self._track_new_state()
        return Statevector(self.layered.num_qubits)

    def copy_state(self, state: Statevector) -> Statevector:
        self._track_new_state()
        return state.copy()

    def adopt_state(self, state: Statevector) -> Statevector:
        # Externally built states (shared-memory entry snapshots, spill
        # reloads) are the one place a badly laid-out buffer could reach
        # the kernels; fail loudly instead of degrading to copy semantics.
        require_state_layout(state._tensor, "adopt_state")
        self._track_new_state()
        return state

    def release_state(self, state: Statevector) -> None:
        self.live_states -= 1

    def apply_layers(self, state: Statevector, start_layer: int, end_layer: int) -> None:
        for layer_index in range(start_layer, end_layer):
            for op in self.layered.layers[layer_index]:
                state.apply_op(op)
        self.ops_applied += self.layered.gates_between(start_layer, end_layer)

    def apply_operator(self, state: Statevector, gate: Gate, qubits: Sequence[int]) -> None:
        state.apply_gate(gate, qubits)
        self.ops_applied += 1

    def finish(self, state: Statevector) -> Statevector:
        """Return the trial's final statevector (caller owns the copy)."""
        return state.copy()

    def finish_view(self, state: Statevector) -> Statevector:
        """The final state itself, uncopied.

        Sound because ``release_state`` is accounting-only and the
        compiled backend's scratch buffer is never a live state's tensor:
        once the executor stops touching this state object, its amplitudes
        are immutable.  Callbacks that retain the payload past the
        ``on_finish`` call must copy it (the runner and the perf harness
        both do).
        """
        return state

    def sample_clbits(
        self, payload: Statevector, measurements: Sequence[Any], rng: np.random.Generator
    ) -> dict:
        return sample_measurements(payload, measurements, rng)

    def sample_clbits_batch(
        self,
        payload: Statevector,
        measurements: Sequence[Any],
        rng: np.random.Generator,
        count: int,
    ) -> List[dict]:
        """The payload's distribution and CDF once, then ``count`` draws."""
        return sample_measurements_batch(payload, measurements, rng, count)
