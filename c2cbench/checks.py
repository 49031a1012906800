"""Output checks applied to every job the benchmark runs.

Each job must pass all of:

* its counts sum to the trial count;
* ``ops_applied + ops_shared`` equals a counting-backend recount of the
  same circuit, noise model and seed (the executed schedule is the
  planned one);
* one statistical test per circuit family, each with false-alarm
  probability at most :data:`ALPHA` per job:

  - Table I circuits (<= 5 qubits): Pearson chi-square of the counts
    against the exact density-matrix distribution with readout flips;
  - QFT from ``|0..0>``: the output is exactly uniform under any Pauli
    noise (every amplitude keeps magnitude ``2**(-n/2)``), tested with
    a chi-square over the per-bit marginals;
  - Bernstein-Vazirani: an error-free trial always yields the hidden
    string, so its count must not fall below the binomial lower tail of
    ``P(no error)``.

The false-alarm rate is fixed so that a correct program fails a series of
benchmark runs totalling a few thousand jobs with probability below 1%.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

#: Per-job false-alarm probability of every statistical test.
ALPHA = 1e-6

#: Cells whose expected count is below this are pooled into one cell, so
#: the chi-square approximation holds out to ALPHA's tail.
MIN_EXPECTED = 10.0


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution (pure Python).

    Regularized upper incomplete gamma ``Q(df/2, x/2)``: series for the
    lower part below ``a + 1``, Lentz continued fraction above.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    a = df / 2.0
    z = x / 2.0
    log_prefix = -z + a * math.log(z) - math.lgamma(a)
    if z < a + 1.0:
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(10000):
            denom += 1.0
            term *= z / denom
            total += term
            if term < total * 1e-16:
                break
        return max(0.0, 1.0 - total * math.exp(log_prefix))
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return min(1.0, math.exp(log_prefix) * h)


def binom_cdf(k: int, n: int, p: float) -> float:
    """``P(X <= k)`` for ``X ~ Binomial(n, p)``, summed in log space."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)
    total = 0.0
    for i in range(k + 1):
        total += math.exp(
            base - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
    return min(1.0, total)


def distribution_pvalue(
    counts: Mapping[str, int], expected: Mapping[str, float]
) -> float:
    """Chi-square goodness of fit of ``counts`` to weights ``expected``.

    ``expected`` maps outcomes to non-negative weights (probabilities or
    pseudo-counts).  Outcomes absent from it join the pooled rare cell;
    observing one when no rare cell exists fails outright (p-value 0).
    """
    n = sum(counts.values())
    norm = float(sum(expected.values()))
    if n == 0 or norm <= 0.0:
        return 0.0
    cells = []
    pooled_obs = sum(v for k, v in counts.items() if k not in expected)
    pooled_exp = 0.0
    for key, weight in expected.items():
        exp_count = weight / norm * n
        if exp_count < MIN_EXPECTED:
            pooled_obs += counts.get(key, 0)
            pooled_exp += exp_count
        else:
            cells.append((counts.get(key, 0), exp_count))
    if pooled_exp > 0.0:
        cells.append((pooled_obs, pooled_exp))
    elif pooled_obs:
        return 0.0
    if len(cells) < 2:
        return 1.0
    stat = sum((obs - exp) ** 2 / exp for obs, exp in cells)
    return chi2_sf(stat, len(cells) - 1)


def uniform_bits_pvalue(counts: Mapping[str, int]) -> float:
    """Chi-square over per-bit marginals of a claimed uniform distribution.

    Under uniformity every bit is an independent fair coin, so the sum of
    the per-bit ``z**2`` is chi-square with one degree of freedom per bit.
    """
    n = sum(counts.values())
    if n == 0:
        return 0.0
    width = len(next(iter(counts)))
    ones = [0] * width
    for bits, count in counts.items():
        for position, bit in enumerate(bits):
            if bit == "1":
                ones[position] += count
    stat = sum((2.0 * k - n) ** 2 / n for k in ones)
    return chi2_sf(stat, width)


def mode_pvalue(counts: Mapping[str, int], target: str, p_min: float) -> float:
    """One-sided binomial test that ``P(target) >= p_min``."""
    n = sum(counts.values())
    return binom_cdf(counts.get(target, 0), n, p_min)


class Reference:
    """What a job's counts are tested against, built once per circuit."""

    def __init__(
        self,
        family: str,
        expected: Optional[Dict[str, float]] = None,
        target: str = "",
        p_min: float = 0.0,
    ) -> None:
        if family not in ("distribution", "uniform", "mode"):
            raise ValueError(f"unknown reference family {family!r}")
        self.family = family
        self.expected = expected
        self.target = target
        self.p_min = p_min

    def pvalue(self, counts: Mapping[str, int]) -> float:
        if self.family == "distribution":
            return distribution_pvalue(counts, self.expected or {})
        if self.family == "uniform":
            return uniform_bits_pvalue(counts)
        return mode_pvalue(counts, self.target, self.p_min)


def error_free_probability(layered, model) -> float:
    """Probability that a trial samples no gate error and no readout flip."""
    if getattr(model, "idle_error", 0.0):
        raise ValueError("idle errors are not modelled by this bound")
    p = 1.0
    for layer in layered.layers:
        for op in layer:
            p *= 1.0 - model.gate_error_probability(op)
    for _, flip in model.measurement_positions(layered):
        p *= 1.0 - flip
    return p


def build_reference(circuit, model, family: str) -> Reference:
    """Exact expectations for one circuit: the heavy part of every check."""
    from repro import NoisySimulator, layerize
    from repro.noise.model import NoiseModel

    if family == "distribution":
        from repro.experiments.convergence import exact_distribution

        return Reference("distribution", expected=exact_distribution(circuit, model))
    if family == "uniform":
        return Reference("uniform")
    if family == "mode":
        clean = NoisySimulator(circuit, NoiseModel.noiseless(), seed=0).run(
            num_trials=8
        )
        if len(clean.counts) != 1:
            raise ValueError("mode reference needs a deterministic circuit")
        (target,) = clean.counts
        return Reference(
            "mode",
            target=target,
            p_min=error_free_probability(layerize(circuit), model),
        )
    raise ValueError(f"unknown reference family {family!r}")


def check_job(
    counts: Mapping[str, int],
    trials: int,
    ops_total: int,
    recount_ops: int,
    reference: Reference,
) -> List[str]:
    """Every output check of one job; returns the failures (empty = pass)."""
    failures = []
    total = sum(counts.values())
    if total != trials:
        failures.append(f"counts sum to {total}, expected {trials}")
    if ops_total != recount_ops:
        failures.append(
            f"ops_applied+ops_shared={ops_total}, recount says {recount_ops}"
        )
    pvalue = reference.pvalue(counts)
    if pvalue < ALPHA:
        failures.append(
            f"{reference.family} test p={pvalue:.3g} < alpha={ALPHA:g}"
        )
    return failures

