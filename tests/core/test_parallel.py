"""run_parallel exactness: bit-identical to the serial executor.

The contract is stronger than statistical equivalence: for a fixed trial
set the parallel executor must replay the *identical* ``on_finish``
stream — same payload bits, same index tuples, same order — for any
worker count, so a seeded measurement RNG downstream produces the same
counts.  Comparisons are within one backend family (compiled vs compiled);
across families kernel fusion legitimately changes float rounding.
"""

import numpy as np
import pytest

from repro.bench.suite import bv, build_compiled_benchmark, qft, resolve_benchmark
from repro.circuits import layerize
from repro.core import run_optimized
from repro.core.parallel import (
    ParallelOutcome,
    fork_available,
    partition_plan,
    run_parallel,
)
from repro.core.runner import NoisySimulator
from repro.lint.costmodel import analyze_partition
from repro.noise import artificial_model, ibm_yorktown, sample_trials
from repro.sim.compiled import CompiledStatevectorBackend

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


def _setup(name="bv4", num_trials=192, seed=11):
    layered = layerize(build_compiled_benchmark(name))
    trials = sample_trials(
        layered, ibm_yorktown(), num_trials, np.random.default_rng(seed)
    )
    return layered, trials


def _serial_stream(layered, trials):
    stream = []

    def on_finish(payload, indices):
        stream.append((np.array(payload.vector, copy=True), indices))

    outcome = run_optimized(
        layered, trials, CompiledStatevectorBackend(layered), on_finish
    )
    return stream, outcome


def _parallel_stream(layered, trials, workers, **kwargs):
    stream = []

    def on_finish(payload, indices):
        stream.append((np.array(payload.vector, copy=True), indices))

    outcome = run_parallel(
        layered,
        trials,
        lambda: CompiledStatevectorBackend(layered),
        on_finish,
        workers=workers,
        **kwargs,
    )
    return stream, outcome


def _assert_streams_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for (s_state, s_indices), (p_state, p_indices) in zip(serial, parallel):
        assert s_indices == p_indices
        assert np.array_equal(s_state, p_state)  # bit-identical, not close


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["bv4", "grover"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_inline_matches_serial(self, name, workers):
        layered, trials = _setup(name)
        serial, s_outcome = _serial_stream(layered, trials)
        parallel, p_outcome = _parallel_stream(
            layered, trials, workers, inline=True
        )
        _assert_streams_identical(serial, parallel)
        assert p_outcome.ops_applied == s_outcome.ops_applied
        assert p_outcome.finish_calls == s_outcome.finish_calls

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3])
    def test_forked_matches_serial(self, workers):
        layered, trials = _setup()
        serial, s_outcome = _serial_stream(layered, trials)
        parallel, p_outcome = _parallel_stream(layered, trials, workers)
        _assert_streams_identical(serial, parallel)
        assert p_outcome.ops_applied == s_outcome.ops_applied
        assert p_outcome.used_fork

    def test_depth_does_not_change_results(self):
        layered, trials = _setup()
        serial, _ = _serial_stream(layered, trials)
        for depth in (1, 2, 3):
            parallel, _ = _parallel_stream(
                layered, trials, 2, depth=depth, inline=True
            )
            _assert_streams_identical(serial, parallel)

    def test_more_workers_than_tasks(self):
        layered, trials = _setup(num_trials=24)
        partition = partition_plan(layered, trials, depth=1)
        workers = partition.num_tasks + 5
        serial, _ = _serial_stream(layered, trials)
        parallel, outcome = _parallel_stream(
            layered, trials, workers, inline=True
        )
        _assert_streams_identical(serial, parallel)
        assert outcome.num_workers == workers

    def test_check_mode_verifies_ops(self):
        layered, trials = _setup(num_trials=64)
        _, outcome = _parallel_stream(
            layered, trials, 2, inline=True, check=True
        )
        partition = partition_plan(layered, trials, depth=1)
        assert outcome.ops_applied == partition.planned_operations(layered)


class TestRunnerIntegration:
    @pytest.mark.parametrize("name", ["bv4", "grover"])
    def test_counts_and_ops_identical_across_worker_counts(self, name):
        circuit = build_compiled_benchmark(name)
        model = ibm_yorktown()
        serial = NoisySimulator(circuit, model, seed=42).run(num_trials=192)
        for workers in (1, 2, 4):
            result = NoisySimulator(circuit, model, seed=42).run(
                num_trials=192, workers=workers
            )
            assert result.counts == serial.counts
            assert result.metrics.optimized_ops == (
                serial.metrics.optimized_ops
            )

    def test_trial_clbits_identical(self):
        circuit = build_compiled_benchmark("bv4")
        model = ibm_yorktown()
        serial = NoisySimulator(circuit, model, seed=5).run(num_trials=96)
        parallel = NoisySimulator(circuit, model, seed=5).run(
            num_trials=96, workers=2
        )
        assert parallel.trial_clbits == serial.trial_clbits

    def test_workers_reject_baseline_mode(self):
        simulator = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=1
        )
        with pytest.raises(ValueError, match="optimized"):
            simulator.run(num_trials=8, mode="baseline", workers=2)

    def test_workers_reject_counting_backend(self):
        simulator = NoisySimulator(
            build_compiled_benchmark("bv4"), ibm_yorktown(), seed=1
        )
        with pytest.raises(ValueError, match="statevector"):
            simulator.run(num_trials=8, backend="counting", workers=2)


def _accounting_case(name):
    """Pinned trial sets: Table I circuits on Yorktown noise, and two
    logical circuits at 5e-3 artificial noise (deeper, wider tries)."""
    if name in ("bv5", "qft5"):
        circuit, model = resolve_benchmark(name)
    else:
        builder = {"bv8": lambda: bv(8), "qft6": lambda: qft(6)}[name]
        circuit, model = builder(), artificial_model(5e-3)
    layered = layerize(circuit)
    trials = sample_trials(layered, model, 256, np.random.default_rng(7))
    return layered, trials


class TestAccountingPins:
    """Runtime parallel accounting equals the static cost model exactly.

    ``analyze_partition`` mirrors the parent's prefix walk and each
    task's serial walk without a backend; with one worker its memory
    bound is tight, so runtime ``peak_msv`` and ``prefix_ops`` must hit
    it for either prefix representation (dense or Pauli-frame).
    """

    @pytest.mark.parametrize("hybrid", [False, True])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("name", ["bv5", "qft5", "bv8", "qft6"])
    def test_peak_and_prefix_ops_match_static_analysis(
        self, name, depth, hybrid
    ):
        layered, trials = _accounting_case(name)
        partition = partition_plan(layered, trials, depth=depth)
        static = analyze_partition(partition, layered, workers=(1,))
        _, outcome = _parallel_stream(
            layered, trials, 1, inline=True, depth=depth, hybrid=hybrid
        )
        assert outcome.peak_msv == static["workers"]["1"]["memory_states"]
        assert outcome.prefix_ops == static["prefix_ops"]


class TestOutcomeAccounting:
    def test_outcome_breakdown_is_consistent(self):
        layered, trials = _setup()
        _, outcome = _parallel_stream(layered, trials, 2, inline=True)
        assert isinstance(outcome, ParallelOutcome)
        assert outcome.prefix_ops + sum(outcome.worker_ops) == (
            outcome.ops_applied
        )
        assert outcome.num_tasks >= 1
        assigned = sorted(
            t for bucket in outcome.assignment for t in bucket
        )
        assert assigned == list(range(outcome.num_tasks))
        assert outcome.shm_bytes > 0
        assert not outcome.used_fork  # inline path
        assert outcome.partition_depth == 1

    def test_peak_msv_counts_emitted_entry_snapshots(self):
        """Entry snapshots are live maintained states: the parallel bound
        must account for at least one live state per task."""
        layered, trials = _setup()
        _, p_outcome = _parallel_stream(layered, trials, 2, inline=True)
        assert p_outcome.peak_msv >= p_outcome.num_tasks

    def test_invalid_worker_count_raises(self):
        layered, trials = _setup(num_trials=8)
        with pytest.raises(ValueError):
            run_parallel(
                layered,
                trials,
                lambda: CompiledStatevectorBackend(layered),
                workers=0,
            )
