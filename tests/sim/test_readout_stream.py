"""The seeded result stream: batched readout and cached-CDF label draws.

Readout draws all of one finish payload's trials with one
``rng.random(count)`` over a CDF built once, and a Pauli channel keeps its
conditional CDF between calls.  Both must return exactly what the
per-draw ``rng.choice`` code returned *and* leave the generator in the
same state, so seeded results, journals and shared-store entries stay
valid.  The per-draw code is kept below as the reference.
"""

from typing import Dict, Tuple

import numpy as np
import pytest

from repro import NoisySimulator, ibm_yorktown
from repro.bench import build_compiled_benchmark
from repro.bench.bv import bv
from repro.circuits import Measurement
from repro.core.executor import run_baseline, run_optimized
from repro.noise import NoiseModel
from repro.noise.channels import (
    PauliChannel,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.sim import (
    StabilizerBackend,
    Statevector,
    StatevectorBackend,
    apply_readout_flips,
    sample_measurements,
)
from repro.sim.measurement import sample_measurements_batch


def reference_readout(state, measurements, rng) -> Dict[int, int]:
    """One trial's readout as one ``rng.choice`` over the full distribution."""
    probs = state.probabilities()
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    outcome = int(rng.choice(probs.size, p=probs))
    return {
        meas.clbit: (outcome >> (state.num_qubits - 1 - meas.qubit)) & 1
        for meas in measurements
    }


def reference_labels(channel: PauliChannel, count: int, rng) -> np.ndarray:
    """Label draws as one validated ``rng.choice`` per call."""
    labels = channel.labels()
    if len(labels) == 1:
        return np.full(count, labels[0])
    weights = np.asarray([channel.probabilities[label] for label in labels])
    weights = weights / channel.total_probability
    return rng.choice(np.array(labels), size=count, p=weights)


def _state(num_qubits: int, kind: str, seed: int) -> Statevector:
    rng = np.random.default_rng(seed)
    size = 2**num_qubits
    if kind == "dense":
        amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    elif kind == "sparse":
        amplitudes = np.zeros(size, dtype=np.complex128)
        support = rng.choice(size, size=min(3, size), replace=False)
        amplitudes[support] = rng.normal(size=support.size) + 0.5j
    else:
        amplitudes = np.zeros(size, dtype=np.complex128)
        amplitudes[int(rng.integers(size))] = 1.0
    amplitudes /= np.linalg.norm(amplitudes)
    return Statevector(num_qubits, amplitudes)


def _measure_all(num_qubits: int):
    # Reverse the clbit map so the qubit -> clbit shift is exercised.
    return [Measurement(q, num_qubits - 1 - q) for q in range(num_qubits)]


class TestBatchedReadout:
    @pytest.mark.parametrize("num_qubits", [1, 2, 5, 12, 14])
    @pytest.mark.parametrize("kind", ["dense", "sparse", "basis"])
    def test_same_outcomes_and_generator_state(self, num_qubits, kind):
        state = _state(num_qubits, kind, seed=num_qubits)
        measurements = _measure_all(num_qubits)
        for count in range(1, 9):
            seed = 1000 * num_qubits + count
            expected_rng = np.random.default_rng(seed)
            actual_rng = np.random.default_rng(seed)
            expected = [
                reference_readout(state, measurements, expected_rng)
                for _ in range(count)
            ]
            actual = sample_measurements_batch(
                state, measurements, actual_rng, count
            )
            assert actual == expected
            assert actual_rng.random() == expected_rng.random()

    def test_single_draw_is_the_count_one_case(self):
        state = _state(5, "dense", seed=3)
        measurements = _measure_all(5)
        expected_rng = np.random.default_rng(8)
        actual_rng = np.random.default_rng(8)
        for _ in range(20):
            assert sample_measurements(
                state, measurements, actual_rng
            ) == reference_readout(state, measurements, expected_rng)
        assert actual_rng.random() == expected_rng.random()

    def test_backend_batch_matches_per_trial_calls(self):
        state = _state(4, "dense", seed=5)
        measurements = _measure_all(4)
        backend = StatevectorBackend(None)
        per_trial_rng = np.random.default_rng(2)
        batch_rng = np.random.default_rng(2)
        per_trial = [
            backend.sample_clbits(state, measurements, per_trial_rng)
            for _ in range(7)
        ]
        batch = backend.sample_clbits_batch(state, measurements, batch_rng, 7)
        assert batch == per_trial
        assert batch_rng.random() == per_trial_rng.random()

    def test_stabilizer_default_batch_matches_per_trial_calls(self):
        sim = NoisySimulator(bv(5), NoiseModel.uniform(0.0), seed=1)
        backend = StabilizerBackend(sim.layered)
        state = backend.make_initial()
        backend.apply_layers(state, 0, sim.layered.num_layers)
        measurements = sim.layered.measurements
        per_trial_rng = np.random.default_rng(4)
        batch_rng = np.random.default_rng(4)
        per_trial = [
            backend.sample_clbits(state, measurements, per_trial_rng)
            for _ in range(6)
        ]
        batch = backend.sample_clbits_batch(state, measurements, batch_rng, 6)
        assert batch == per_trial
        assert batch_rng.random() == per_trial_rng.random()


class TestBadPayloads:
    """The checks ``rng.choice`` made on ``p`` still reject bad states."""

    @pytest.mark.parametrize("bad", ["zero", "nan", "inf"])
    def test_batched_readout_raises_like_choice(self, bad):
        amplitudes = np.zeros(8, dtype=np.complex128)
        if bad == "nan":
            amplitudes[2] = np.nan
        elif bad == "inf":
            amplitudes[5] = np.inf
        state = Statevector(3, amplitudes)
        measurements = _measure_all(3)
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError):
                reference_readout(state, measurements, np.random.default_rng(0))
            for count in (1, 4):
                with pytest.raises(ValueError):
                    sample_measurements_batch(
                        state, measurements, np.random.default_rng(0), count
                    )
            with pytest.raises(ValueError):
                StatevectorBackend(None).sample_clbits_batch(
                    state, measurements, np.random.default_rng(0), 3
                )


class TestCachedLabelDraws:
    CHANNELS = {
        "1-label": PauliChannel({"y": 0.02}),
        "3-label": depolarizing(0.03),
        "3-label-skewed": PauliChannel({"x": 0.01, "y": 0.002, "z": 0.0005}),
        "15-label": two_qubit_depolarizing(0.05),
    }

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_same_labels_and_generator_state(self, name):
        channel = self.CHANNELS[name]
        expected_rng = np.random.default_rng(17)
        actual_rng = np.random.default_rng(17)
        for count in list(range(1, 9)) + [64, 1]:
            expected = reference_labels(channel, count, expected_rng)
            actual = channel.sample_labels(count, actual_rng)
            assert actual.dtype == expected.dtype
            assert actual.tolist() == expected.tolist()
            assert channel.sample_label(actual_rng) == str(
                reference_labels(channel, 1, expected_rng)[0]
            )
        assert actual_rng.random() == expected_rng.random()


def _reference_run(circuit, noise, seed, num_trials, mode):
    """Counts and per-trial bits from per-trial readout, as run() did it."""
    sim = NoisySimulator(circuit, noise, seed=seed)
    trials = sim.sample(num_trials)
    backend = sim.make_backend("statevector")
    measurements = sim.layered.measurements
    trial_clbits = [None] * len(trials)

    def on_finish(payload, trial_indices: Tuple[int, ...]) -> None:
        for index in trial_indices:
            clbits = reference_readout(payload, measurements, sim._rng)
            trial_clbits[index] = apply_readout_flips(
                clbits, trials[index].meas_flips
            )

    runner = run_optimized if mode == "optimized" else run_baseline
    runner(sim.layered, trials, backend, on_finish)
    return trial_clbits, sim._rng.random()


class TestSimulatorStream:
    @pytest.mark.parametrize("mode", ["optimized", "baseline"])
    @pytest.mark.parametrize("name", ["bv4", "qft5", "grover"])
    def test_trial_clbits_match_per_trial_readout(self, name, mode):
        circuit = build_compiled_benchmark(name)
        noise = ibm_yorktown()
        expected, expected_next = _reference_run(circuit, noise, 29, 600, mode)
        sim = NoisySimulator(circuit, noise, seed=29)
        result = sim.run(num_trials=600, mode=mode)
        assert result.trial_clbits == expected
        assert sim._rng.random() == expected_next
