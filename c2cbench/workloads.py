"""The benchmark's workloads: fixed job lists and the two ways to run them.

Every workload is a closed loop driven from one process: one caller runs
a job, waits for its counts, then runs the next.  The job list is a pure
function of ``(workload, seed, seconds)``, replayed in the same order on
every run, so the work measured never depends on how fast the host is.

Why these three (see NOTES.md for the layer each one stresses):

``paper-yorktown``
    The paper's own workload: the twelve Table I circuits compiled for
    IBM Yorktown under its calibrated noise, 4096 trials each.  States
    have 2-5 qubits, so time goes to Python-side sampling, readout and
    executor dispatch rather than kernel arithmetic.
``dense-qft14``
    ``qft(14)`` under uniform artificial noise at 7e-4, 1024 trials per
    job: kernel-bound, so kernel work shows and trial bookkeeping does not.
``serve-mix``
    An in-process ``JobServer`` with its default configuration (journal
    and shared prefix store on, one execution thread), one caller doing
    submit -> wait over four specs sent as inline QASM: serial bv14 and
    qft12 (journaled and shared), bv14 on the hybrid Clifford engine and
    qft12 on the wavefront engine.  Forked workers are left out: two of
    them on a 2-vCPU host would measure the scheduler.
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: Trials of the untimed warm-up job run once per spec during set-up.
WARMUP_TRIALS = 64


class Spec(NamedTuple):
    """One distinct kind of job: a circuit, its noise and engine options."""

    name: str
    circuit: Any
    noise: Any
    family: str
    options: Dict[str, Any]
    wire: Optional[Dict[str, Any]] = None


class Job(NamedTuple):
    spec: int
    seed: int
    trials: int


class JobResult(NamedTuple):
    counts: Dict[str, int]
    ops_applied: int
    ops_shared: int
    baseline_ops: int
    peak_msv: int
    attempts: int
    job_id: str = ""

    @property
    def ops_total(self) -> int:
        return self.ops_applied + self.ops_shared

    def identity(self) -> Tuple[Any, ...]:
        """What two runs of the same job on the same seed must agree on."""
        return (tuple(sorted(self.counts.items())), self.ops_applied, self.ops_shared)


class Workload(NamedTuple):
    name: str
    serve: bool
    trials: int
    #: Reference seconds of one pass over all specs at PROBE_REF_MS speed;
    #: the job list holds ``round(seconds / ref_cycle_s)`` such passes.
    ref_cycle_s: float
    build_specs: Any

    def jobs(
        self, num_specs: int, seed: int, seconds: float, trials: Optional[int] = None
    ) -> List[Job]:
        """The fixed job list of one run: whole cycles over the specs."""
        cycles = max(1, int(round(seconds / self.ref_cycle_s)))
        rng = random.Random(f"{self.name}:{seed}")
        per_job = self.trials if trials is None else trials
        return [
            Job(index % num_specs, rng.randrange(2**31), per_job)
            for index in range(cycles * num_specs)
        ]


def _yorktown_specs() -> List[Spec]:
    from repro import ibm_yorktown
    from repro.bench import benchmark_names, build_compiled_benchmark

    noise = ibm_yorktown()
    return [
        Spec(name, build_compiled_benchmark(name), noise, "distribution", {})
        for name in benchmark_names()
    ]


def _qft14_specs() -> List[Spec]:
    from repro import artificial_model
    from repro.bench.qft import qft

    return [Spec("qft14", qft(14), artificial_model(7e-4), "uniform", {})]


def _serve_specs() -> List[Spec]:
    from repro import artificial_model, parse_qasm, to_qasm
    from repro.bench.bv import bv
    from repro.bench.qft import qft

    families = {
        "bv14": (bv(14), 2e-3, "mode"),
        "qft12": (qft(12), 1e-3, "uniform"),
    }
    layout = (
        ("bv14-serial", "bv14", {}),
        ("qft12-serial", "qft12", {}),
        ("bv14-hybrid", "bv14", {"hybrid": True}),
        ("qft12-wavefront", "qft12", {"batch_size": 16}),
    )
    specs = []
    for name, family_name, options in layout:
        circuit, rate, family = families[family_name]
        qasm = to_qasm(circuit)
        # The server parses the QASM text; the library reference must run
        # the identical parsed circuit.
        specs.append(
            Spec(
                name,
                parse_qasm(qasm),
                artificial_model(rate),
                family,
                options,
                wire={"circuit": {"qasm": qasm}, "noise": {"artificial": rate}},
            )
        )
    return specs


WORKLOADS: Dict[str, Workload] = {
    "paper-yorktown": Workload("paper-yorktown", False, 4096, 6.8, _yorktown_specs),
    "dense-qft14": Workload("dense-qft14", False, 1024, 3.2, _qft14_specs),
    "serve-mix": Workload("serve-mix", True, 1024, 3.8, _serve_specs),
}


def library_job(spec: Spec, job: Job) -> JobResult:
    """Circuit to counts through the public library entry point."""
    from repro import NoisySimulator

    result = NoisySimulator(spec.circuit, spec.noise, seed=job.seed).run(
        num_trials=job.trials, **spec.options
    )
    return JobResult(
        counts=result.counts,
        ops_applied=result.metrics.optimized_ops,
        ops_shared=result.ops_shared,
        baseline_ops=result.metrics.baseline_ops,
        peak_msv=result.metrics.peak_msv,
        attempts=1,
    )


def recount_ops(spec: Spec, job: Job) -> int:
    """Planned operation count of the job, from the counting backend."""
    from repro import NoisySimulator

    result = NoisySimulator(spec.circuit, spec.noise, seed=job.seed).run(
        num_trials=job.trials, backend="counting"
    )
    return result.metrics.optimized_ops


def wire_spec(spec: Spec, job: Job) -> Dict[str, Any]:
    payload = dict(spec.wire or {})
    payload.update(trials=job.trials, seed=job.seed, label=spec.name)
    payload.update(spec.options)
    return payload


class Service:
    """An in-process ``JobServer`` on an event-loop thread, plus a client.

    The server runs exactly as ``repro serve`` does (default
    ``ServeConfig``: one execution thread, journal and shared prefix
    store on) over a state directory the caller owns.
    """

    def __init__(self, state_dir: str) -> None:
        from repro.serve import JobServer, ServeConfig

        self.server = JobServer(ServeConfig(state_dir))
        self.client = None
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._main, name="c2cbench-serve", daemon=True
        )

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
            self._ready.set()
            self._loop.run_until_complete(self.server.serve_forever())
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            self._error = exc
        finally:
            self._ready.set()
            self._loop.close()

    def __enter__(self) -> "Service":
        from repro.serve import ServeClient

        self._thread.start()
        if not self._ready.wait(60.0) or self._error is not None:
            raise RuntimeError(f"job server failed to start: {self._error!r}")
        self.client = ServeClient(port=self.server.port, timeout=120.0)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            if self._error is None and self._thread.is_alive():
                self.client.shutdown("drain")
        finally:
            self._thread.join(60.0)
        if self._thread.is_alive():
            raise RuntimeError("job server did not stop within 60 s")

    def run(self, spec: Spec, job: Job) -> JobResult:
        """Submit one job and block until its result (closed loop)."""
        accepted = self.client.submit(wire_spec(spec, job))
        response = self.client.wait(accepted["job_id"])
        if response.get("state") != "done":
            raise RuntimeError(
                f"job {accepted['job_id']} ended {response.get('state')}: "
                f"{response.get('message')}"
            )
        payload = response["result"]
        return JobResult(
            counts={str(k): int(v) for k, v in payload["counts"].items()},
            ops_applied=int(payload["ops_applied"]),
            ops_shared=int(payload["ops_shared"]),
            baseline_ops=int(payload["baseline_ops"]),
            peak_msv=int(payload["peak_msv"]),
            attempts=int(payload["attempts"]),
            job_id=str(payload["job_id"]),
        )


def state_dir(root: str, tag: str) -> str:
    path = os.path.join(root, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
