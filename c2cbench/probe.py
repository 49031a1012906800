"""Machine-speed probe, speed normaliser and order statistics.

The host this benchmark targets is a shared 2-vCPU VM whose speed drifts by
up to 2x over minutes with no sign in CPU time, steal time or hardware
counters.  A fixed pure-Python loop, timed right before and right after
each job, sees the same drift, so every job time is rescaled to a
reference speed: ``t_norm = t_raw * PROBE_REF_MS / probe_ms``.  Results
stay in seconds, "as if measured on a machine whose probe reads
``PROBE_REF_MS``".  In six same-seed repeats on the 2-vCPU host,
normalising cut the quartile spread of dense-qft14 throughput from 6.4%
to 2.3% and of serve-mix from 14% to 9%.

This module imports nothing from ``repro`` so the probe can never move
when the program under test changes.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Dict, Sequence

#: Probe reading (ms) of the reference machine.  A constant: changing it
#: rescales every timing the benchmark has ever reported.
PROBE_REF_MS = 4.0

_SPIN_ITERATIONS = 20000
_SPIN_REPEATS = 8


def _spin(iterations: int) -> int:
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return acc + len(table)


def probe_ms(repeats: int = _SPIN_REPEATS) -> float:
    """Mean thread CPU time (ms) of ``repeats`` runs of a fixed integer loop.

    The host flips between a fast and a slow state many times a second;
    the mean tracks the share of time spent in each, where a median
    would snap to one state.  Thread CPU time leaves out preemption and
    waits for the interpreter lock, which the job server's threads still
    hold for a moment after a result is delivered.
    """
    start = time.thread_time()
    for _ in range(repeats):
        _spin(_SPIN_ITERATIONS)
    return 1000.0 * (time.thread_time() - start) / repeats


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Multiplier taking a raw time to reference-machine time."""
    if before_ms <= 0 or after_ms <= 0:
        raise ValueError("probe readings must be positive")
    return PROBE_REF_MS / ((before_ms + after_ms) / 2.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quantile method."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def machine_block(probes: Sequence[float]) -> Dict[str, object]:
    """Host description printed beside every result."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    block: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "probe_ref_ms": PROBE_REF_MS,
        "probe_count": len(probes),
    }
    if probes:
        block["probe_median_ms"] = round(median(probes), 4)
        block["probe_min_ms"] = round(min(probes), 4)
        block["probe_max_ms"] = round(max(probes), 4)
        block["probe_spread"] = round(quartile_spread(list(probes)), 4)
    return block


def log(message: str) -> None:
    """Progress line on stderr; stdout is reserved for results."""
    print(f"[c2cbench] {message}", file=sys.stderr, flush=True)

