"""Measurement sampling and classical readout errors.

Measurement errors in the paper's model (Sec. III-B-1) are classical: after
a qubit is measured, the resulting bit is flipped with a device-specific
probability.  Flips therefore never touch the statevector and never affect
prefix reuse — they are applied here, to sampled bitstrings, after the
quantum part of a trial finished.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from ..circuits.circuit import Measurement
from .statevector import Statevector

__all__ = [
    "sample_measurements",
    "sample_measurements_batch",
    "apply_readout_flips",
    "counts_from_samples",
    "merge_counts",
]


def sample_measurements_batch(
    state: Statevector,
    measurements: Sequence[Measurement],
    rng: np.random.Generator,
    count: int,
) -> List[Dict[int, int]]:
    """Sample ``count`` joint outcomes of ``measurements`` from ``state``.

    Returns one ``clbit -> bit`` map per draw, in draw order; draws of the
    same basis state share one map object, so copy a map before mutating
    it.  The distribution and its CDF are built once, then the draws are
    one ``rng.random(count)`` and one ``searchsorted``.  That is exactly
    what ``rng.choice(probs.size, p=probs)`` computes per call (normalise,
    cumsum, divide by the last entry, search one uniform double), so the
    outcomes, and the generator's state afterwards, equal those of
    ``count`` successive ``choice`` calls.

    Raises :class:`ValueError` for a zero-norm or non-finite state, as
    ``choice`` does for probabilities that are NaN.
    """
    probs = state.probabilities()
    np.maximum(probs, 0.0, out=probs)  # clip at 0; NaN stays NaN
    total = probs.sum()
    if not 0.0 < total < math.inf:  # also False for NaN
        raise ValueError(
            f"cannot sample a state with total probability {total}"
        )
    probs /= total
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    outcomes = cdf.searchsorted(rng.random(count), side="right")
    shift = state.num_qubits - 1
    by_outcome: Dict[int, Dict[int, int]] = {}
    samples = []
    for outcome in outcomes.tolist():
        clbits = by_outcome.get(outcome)
        if clbits is None:
            clbits = by_outcome[outcome] = {
                meas.clbit: (outcome >> (shift - meas.qubit)) & 1
                for meas in measurements
            }
        samples.append(clbits)
    return samples


def sample_measurements(
    state: Statevector,
    measurements: Sequence[Measurement],
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Sample one joint outcome of ``measurements`` from ``state``.

    Returns a ``clbit -> bit`` map.  The joint outcome is drawn in a single
    multinomial draw from the full distribution (all listed measurements are
    terminal, so no collapse ordering matters).
    """
    return sample_measurements_batch(state, measurements, rng, 1)[0]


def apply_readout_flips(
    clbits: Dict[int, int], flipped_clbits: Sequence[int]
) -> Dict[int, int]:
    """``clbits`` with the listed classical bits flipped.

    Never mutates ``clbits``: with flips to apply the result is a new
    map; with none it is ``clbits`` itself.
    """
    if not flipped_clbits:
        return clbits
    result = dict(clbits)
    for clbit in flipped_clbits:
        if clbit in result:
            result[clbit] ^= 1
    return result


def counts_from_samples(
    samples: Sequence[Dict[int, int]], num_clbits: int
) -> Dict[str, int]:
    """Aggregate per-trial clbit maps into bitstring counts.

    Bit 0 of the string is clbit 0 (leftmost), matching the statevector
    bitstring convention.  Unmeasured clbits read as 0.
    """
    counts: Dict[str, int] = {}
    for sample in samples:
        bits = "".join(str(sample.get(c, 0)) for c in range(num_clbits))
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def merge_counts(*count_maps: Dict[str, int]) -> Dict[str, int]:
    """Sum several bitstring-count histograms."""
    merged: Dict[str, int] = {}
    for counts in count_maps:
        for bits, count in counts.items():
            merged[bits] = merged.get(bits, 0) + count
    return merged
