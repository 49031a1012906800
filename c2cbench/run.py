"""Circuit-to-counts benchmark: one command, every metric, every output checked.

Usage (from the root of a checkout)::

    python3 c2cbench/run.py --workload paper-yorktown --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one untraced timed pass and prints the end-to-end
metrics; ``--trace 1`` runs an untraced pass, a baseline-vs-optimized
comparison and a traced pass over the same job list, and prints the
per-layer metrics.  Every job's output is checked (see ``checks.py``).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes
the host.  Every timing is rescaled to reference-machine speed with the
probe in ``probe.py``; ``wall.trials_per_s_raw`` and
``machine.probe_ms`` report the raw side.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".c2cbench_work")

#: Fresh-interpreter set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Trials of each optimized/baseline pair behind ``reuse.wall_speedup``.
REUSE_TRIALS = 128
#: A traced job must have at least this share of its wall time in layers.
MIN_COVERAGE = 0.95

# One BLAS thread: on a 2-vCPU host a second one only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class Record(NamedTuple):
    """One timed job: its result (or error) and its timing."""

    job: Any
    result: Any
    error: Optional[str]
    raw_s: float
    factor: float
    probes: Tuple[float, float]
    selfs: Dict[str, float]
    unattributed: float

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


def _pin_to_one_cpu() -> None:
    """Run every thread (and child) of the benchmark on one CPU.

    On a 2-vCPU VM, each trial the job server streams wakes its event-loop
    thread from the execution thread.  Across vCPUs that wakeup goes
    through the hypervisor, and with host load it swung serve-mix job
    times by 1.5x while the speed probe moved 1.13x; on one CPU it is a
    plain context switch.  The probe then also reads the CPU the jobs ran on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _fail_outside_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"c2cbench: no program sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)


def _runner(workload, service):
    from workloads import library_job

    return service.run if workload.serve else library_job


def _engine(spec) -> str:
    if spec.options.get("hybrid"):
        return "hybrid"
    if spec.options.get("batch_size"):
        return "wavefront"
    return "serial"


def _timed_pass(specs, jobs, run_job, tracer=None) -> List[Record]:
    from probe import log, probe_ms, speed_factor

    records = []
    for job in jobs:
        before = probe_ms()
        mark = tracer.mark() if tracer is not None else 0
        start = time.perf_counter()
        try:
            result, error = run_job(specs[job.spec], job), None
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        after = probe_ms()
        selfs, unattributed = {}, 0.0
        if tracer is not None:
            selfs, unattributed = tracer.attribute(mark, start, end)
        record = Record(job, result, error, end - start, speed_factor(before, after),
                        (before, after), selfs, unattributed)
        log(f"job {specs[job.spec].name} raw_s={record.raw_s:.4f} "
            f"norm_s={record.norm_s:.4f} probe_ms={before:.3f},{after:.3f}")
        records.append(record)
    return records


def _check_pass(workload, specs, records) -> Dict[int, List[str]]:
    """Run every output check; maps each failed job's index to its problems."""
    from checks import build_reference, check_job
    from workloads import library_job, recount_ops

    references: Dict[int, Any] = {}
    failures: Dict[int, List[str]] = {}
    for index, record in enumerate(records):
        job = record.job
        spec = specs[job.spec]
        if record.error is not None:
            failures[index] = [f"{spec.name}: {record.error}"]
            continue
        if job.spec not in references:
            references[job.spec] = build_reference(spec.circuit, spec.noise, spec.family)
        result = record.result
        problems = check_job(
            result.counts, job.trials, result.ops_total,
            recount_ops(spec, job), references[job.spec],
        )
        if workload.serve:
            library = library_job(spec, job)
            if library.counts != result.counts or library.ops_total != result.ops_total:
                problems.append("serve result differs from the library run")
        if problems:
            failures[index] = [f"{spec.name}: {p}" for p in problems]
    return failures


def _setup(workload, seed: int, service=None):
    """Everything before the first timed job: inputs and warm-up."""
    from workloads import WARMUP_TRIALS, Job

    specs = workload.build_specs()
    run_job = _runner(workload, service)
    for index, spec in enumerate(specs):
        run_job(spec, Job(index, seed, WARMUP_TRIALS))
    return specs, run_job


def _measure_setups(args) -> List[float]:
    """Normalized fresh-interpreter set-up times of SETUP_SAMPLES children."""
    from probe import probe_ms, speed_factor

    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = probe_ms()
        spawned = time.time()
        child = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, timeout=120, check=True
        )
        after = probe_ms()
        ready = json.loads(child.stdout.decode().strip().splitlines()[-1])["ready"]
        samples.append((ready - spawned) * speed_factor(before, after))
    return samples


def _setup_only(args) -> None:
    from workloads import WORKLOADS, Service, state_dir

    workload = WORKLOADS[args.workload]
    with contextlib.ExitStack() as stack:
        service = None
        if workload.serve:
            path = state_dir(WORK, "setup")
            stack.callback(shutil.rmtree, path, True)
            service = stack.enter_context(Service(path))
        _setup(workload, args.seed, service)
        print(json.dumps({"ready": time.time()}), flush=True)


def _pass(workload, seed: int, seconds: float, trials: Optional[int], tracer=None):
    """Set up (a fresh server for serve-mix) and time the fixed job list once.

    Returns ``(specs, jobs, records, sizes)``; ``sizes`` holds the journal
    and shared-store bytes a traced pass left, read before the server stops.
    """
    from tracer import stored_bytes
    from workloads import Service, state_dir

    with contextlib.ExitStack() as stack:
        service = None
        if workload.serve:
            path = state_dir(WORK, "serve")
            stack.callback(shutil.rmtree, path, True)
            service = stack.enter_context(Service(path))
        specs, run_job = _setup(workload, seed, service)
        jobs = workload.jobs(len(specs), seed, seconds, trials)
        if tracer is None:
            return specs, jobs, _timed_pass(specs, jobs, run_job), {}
        with tracer:
            records = _timed_pass(specs, jobs, run_job, tracer)
        return specs, jobs, records, stored_bytes(tracer)


def _ok(records) -> List[Record]:
    return [r for r in records if r.error is None]


def job_p50(records) -> float:
    """Median over job kinds (specs) of each kind's median latency.

    A run holds a few jobs of each kind and kinds differ by up to 3x, so
    the plain median of all jobs would sit on the gap between two kinds
    and swing with their extremes.
    """
    from probe import median

    by_spec: Dict[int, List[float]] = {}
    for record in records:
        by_spec.setdefault(record.job.spec, []).append(record.norm_s)
    return median([median(latencies) for latencies in by_spec.values()])


def end_to_end(records, failures: Dict[int, List[str]], setups: List[float]) -> Dict[str, float]:
    from probe import median

    good_trials = sum(r.job.trials for i, r in enumerate(records) if i not in failures)
    total_norm = sum(r.norm_s for r in records)
    return {
        "trials_per_s": good_trials / total_norm,
        "job_p50_s": job_p50(records),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _reuse_wall_speedup(specs, jobs) -> float:
    """Baseline / optimized normalized wall time on shared trial sets."""
    from probe import probe_ms, speed_factor
    from repro import NoisySimulator

    optimized = baseline = 0.0
    seen = set()
    for job in jobs:
        if job.spec in seen:
            continue
        seen.add(job.spec)
        spec = specs[job.spec]
        sim = NoisySimulator(spec.circuit, spec.noise, seed=job.seed)
        trials = sim.sample(REUSE_TRIALS)
        for mode, options in (("optimized", spec.options), ("baseline", {})):
            before = probe_ms()
            start = time.perf_counter()
            sim.run(trials=trials, mode=mode, **options)
            elapsed = time.perf_counter() - start
            factor = speed_factor(before, probe_ms())
            if mode == "optimized":
                optimized += elapsed * factor
            else:
                baseline += elapsed * factor
    return baseline / optimized


def per_layer(specs, untraced, traced, tracer, sizes, wall_speedup) -> Dict[str, float]:
    from probe import median

    ok = _ok(traced)
    trials = sum(r.job.trials for r in ok) or 1
    counters = tracer.counters

    def layer_s(*names: str) -> float:
        return sum(r.selfs.get(n, 0.0) * r.factor for r in ok for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    results = [r.result for r in ok]
    ops_total = sum(r.ops_total for r in results)
    baseline_ops = sum(r.baseline_ops for r in results)
    metrics: Dict[str, float] = {
        "sampling.s": layer_s("sampling"),
        "sampling.us_per_trial": 1e6 * layer_s("sampling") / trials,
        "sampling.events_per_trial": ratio(counters["sampling.events"], counters["sampling.trials"]),
        "plan.s": layer_s("plan"),
        "plan.us_per_trial": 1e6 * layer_s("plan") / trials,
        "plan.normalized_ops": ratio(ops_total, baseline_ops),
        "plan.peak_msv": max((r.peak_msv for r in results), default=0),
        "plan.trials_per_payload": ratio(counters["plan.trials"], counters["plan.payloads"]),
        "execute.self_s": layer_s("execute.serial", "execute.hybrid", "execute.wavefront"),
        "execute.ops_applied": sum(r.ops_applied for r in results),
        "cache.stores": counters["cache.stores"],
        "cache.restores": counters["cache.restores"],
        "reuse.ops_speedup": ratio(baseline_ops, ops_total),
        "reuse.wall_speedup": wall_speedup,
    }
    for engine in ("serial", "hybrid", "wavefront"):
        chosen = [r for r in _ok(untraced) if _engine(specs[r.job.spec]) == engine]
        metrics[f"engine.{engine}.job_p50_s"] = job_p50(chosen) if chosen else 0.0
    for kind in ("diagonal", "permutation", "controlled", "dense"):
        layer = f"kernel.{kind}"
        seconds = layer_s(layer)
        metrics[f"{layer}.calls"] = counters[f"{layer}.calls"]
        metrics[f"{layer}.s"] = seconds
        metrics[f"{layer}.computed_bytes"] = counters[f"{layer}.computed_bytes"]
        metrics[f"{layer}.amps_per_s"] = ratio(counters[f"{layer}.amps"], seconds)
    compiled = [c.stats() for c in tracer.compiled.values()]
    metrics["segment.compile_s"] = layer_s("segment")
    metrics["segment.hit_ratio"] = 1.0 - ratio(
        sum(s["segments"] for s in compiled), counters["segment.calls"]
    )
    metrics["kernel.fused_runs"] = sum(s["fused_runs"] for s in compiled)
    metrics["readout.s"] = layer_s("readout")
    metrics["readout.us_per_trial"] = 1e6 * layer_s("readout") / trials
    metrics["runner.s"] = layer_s("runner")
    metrics["journal.records"] = counters["journal.records"]
    metrics["journal.bytes"] = sizes["journal.bytes"]
    metrics["journal.s"] = layer_s("journal")
    metrics["shared.fetches"] = counters["shared.fetches"]
    metrics["shared.hit_ratio"] = ratio(counters["shared.hits"], counters["shared.fetches"])
    metrics["shared.ops_shared_ratio"] = ratio(sum(r.ops_shared for r in results), ops_total)
    metrics["shared.bytes"] = sizes["shared.bytes"]
    metrics["shared.s"] = layer_s("shared")
    waits, executes, overheads = [], [], []
    for r in ok:
        job_id = r.result.job_id
        if job_id in tracer.exec_spans:
            begin, finish = tracer.exec_spans[job_id]
            waits.append((begin - tracer.admitted.get(job_id, begin)) * r.factor)
            executes.append((finish - begin) * r.factor)
            overheads.append((r.raw_s - (finish - begin)) * r.factor)
    metrics["serve.queue_wait_p50_s"] = median(waits) if waits else 0.0
    metrics["serve.execute_p50_s"] = median(executes) if executes else 0.0
    metrics["serve.overhead_p50_s"] = median(overheads) if overheads else 0.0
    metrics["serve.rejected"] = counters["raised.QueueFull"]
    metrics["serve.retries"] = counters["serve.retries"]
    metrics["serve.self_s"] = layer_s("serve", "serve.client")
    probes = [p for r in untraced + traced for p in r.probes]
    metrics["machine.probe_ms"] = median(probes)
    metrics["wall.trials_per_s_raw"] = (
        sum(r.job.trials for r in _ok(untraced)) / sum(r.raw_s for r in untraced)
    )
    metrics["stages.coverage"] = min(1.0 - r.unattributed / r.raw_s for r in traced)
    metrics["trace.overhead_frac"] = (
        sum(r.norm_s for r in traced) / sum(r.norm_s for r in untraced) - 1.0
    )
    return metrics


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units) -> None:
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials per job (smoke tests only)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _fail_outside_checkout()
    _pin_to_one_cpu()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from probe import log, machine_block
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    if args.setup_only:
        _setup_only(args)
        return 0

    problems: List[str] = []
    if args.trace:
        from tracer import LayerTracer

        specs, jobs, untraced, _ = _pass(workload, args.seed, args.seconds, args.trials)
        failures = _check_pass(workload, specs, untraced)
        wall_speedup = _reuse_wall_speedup(specs, jobs)
        tracer = LayerTracer()
        _, _, traced, sizes = _pass(workload, args.seed, args.seconds, args.trials, tracer)
        for index, (a, b) in enumerate(zip(untraced, traced)):
            if a.error or b.error or a.result.identity() != b.result.identity():
                failures.setdefault(index, []).append("traced and untraced passes disagree")
        metrics = per_layer(specs, untraced, traced, tracer, sizes, wall_speedup)
        if metrics["stages.coverage"] < MIN_COVERAGE:
            problems.append(f"trace coverage {metrics['stages.coverage']:.3f} < {MIN_COVERAGE}")
        units = declared_units("per_layer")
        records = untraced + traced
    else:
        setups = _measure_setups(args)
        specs, jobs, records, _ = _pass(workload, args.seed, args.seconds, args.trials)
        failures = _check_pass(workload, specs, records)
        metrics = end_to_end(records, failures, setups)
        units = declared_units("end_to_end")
    for index, lines in sorted(failures.items()):
        for line in lines:
            log(f"FAILED job {index} {line}")
    for line in problems:
        log(f"FAILED {line}")
    block = machine_block([p for r in records for p in r.probes])
    block.update(jobs=len(jobs), workload=workload.name)
    print("# machine " + json.dumps(block, sort_keys=True))
    _emit(not failures and not problems, len(jobs), len(failures), metrics, units)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except Exception:  # noqa: BLE001 - report and exit non-zero, no result line
        traceback.print_exc()
        code = 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    sys.exit(code)
