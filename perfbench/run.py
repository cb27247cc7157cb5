"""qmoney benchmark: time one workload, check every result, print the metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Load model: a closed loop with one caller.  Operations run back to back in
this process, which starts no thread or process of its own while timing; the
program keeps its own thread pools, and the thread variables are recorded,
never set.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends
half of ``--seconds`` untraced and half traced and prints the per-layer
metrics.  The last line of standard output is one JSON object; the full
result, with the environment block and every failed op, also goes to
``.perfbench_out/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("cli-small", "many-notes", "monte-carlo")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 900


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from qmoney import simulator

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    thread_vars = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    thread_vars |= {key for key in os.environ if key.endswith("_NUM_THREADS")}
    thread_vars.add("QMONEY_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {key: os.environ.get(key, "unset") for key in sorted(thread_vars)},
        "cpu_count": os.cpu_count(),
        "simulator_workers": simulator.worker_count(),
        "seed": seed,
        "commit": git_commit(),
    }


def make_workload(args, workdir: str):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, workdir)


def setup_probe(args) -> int:
    """What every fresh process pays: import ``qmoney.cli``, build the inputs."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK)
    try:
        make_workload(args, workdir).cycle(0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms, which
        # would quantise the samples.
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(perf_counter() - start)
    return samples


class Phase:
    """Timings and outcomes of ops run back to back for a stretch of time."""

    def __init__(self):
        self.durations: list[float] = []
        self.correct = 0
        self.by_name: dict[str, list[float]] = {}
        self.trials = 0
        self.elapsed = 0.0

    @property
    def ops_per_s(self) -> float:
        """Correct ops per second: a failed op never adds throughput."""
        return self.correct / self.elapsed

    @property
    def s_per_op(self) -> float:
        return self.elapsed / len(self.durations)


class Runner:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.cycle = 0
        self.attempted = 0
        self.failures: list[dict] = []

    def run_op(self, op):
        from workloads import Outcome

        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            outcome = Outcome(False, f"{type(exc).__name__}: {exc}")
        duration = perf_counter() - start
        if not outcome.ok:
            failure = {"op": self.attempted - 1, "name": op.name, "detail": outcome.detail}
            self.failures.append(failure)
            print(f"FAILED op {failure['op']} {op.name}: {outcome.detail}", flush=True)
        return outcome, duration

    def run_cycles(self, seconds: float) -> Phase:
        """Whole cycles, so every op runs equally often, for about ``seconds``.

        A cycle starts only if at least half of an average cycle fits before
        the deadline, so a run of 12-second ops overshoots by at most 6 s.
        """
        phase = Phase()
        start = perf_counter()
        cycles = 0
        while True:
            for op in self.workload.cycle(self.cycle):
                outcome, duration = self.run_op(op)
                phase.durations.append(duration)
                phase.correct += outcome.ok
                phase.trials += outcome.trials
                phase.by_name.setdefault(op.name, []).append(duration)
            self.cycle += 1
            cycles += 1
            phase.elapsed = perf_counter() - start
            if phase.elapsed + phase.elapsed / cycles / 2 >= seconds:
                return phase


def tail(durations: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples beyond it."""
    n = len(durations)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(durations)
    return pct, ordered[max(1, math.ceil(pct * n / 100)) - 1]


def end_to_end(phase: Phase, setup: list[float]) -> tuple[dict, dict]:
    n = len(phase.durations)
    metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_ms.p50": (statistics.median(phase.durations) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"op_ms.samples": (n, "count")}
    high = tail(phase.durations)
    if high is not None:
        extra["op_ms.tail"] = (high[1] * 1e3, f"ms (p{high[0]})")
    if phase.trials:
        extra["trials_per_s"] = (phase.trials / phase.elapsed, "1/s")
    for name, durations in phase.by_name.items():
        extra[f"op_ms.p50.{name}"] = (statistics.median(durations) * 1e3, "ms")
    return metrics, extra


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_metrics(title: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{title} {name} {value:.6g} {unit}")


def run_workload(args) -> int:
    setup = [] if args.trace else measure_setup(args)
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = make_workload(args, workdir)
        env = environment(args.seed)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        for key, value in env.items():
            print(f"env {key} {json.dumps(value)}")
        runner = Runner(workload)
        if workload.WARMUP:
            # Twice on the same inputs, untimed: the second pass checks that
            # every simulation's (config, seed) reproduces its count, so no
            # timed simulation has to repeat a seed.
            for _ in range(2):
                for op in workload.cycle(runner.cycle):
                    runner.run_op(op)
            runner.cycle += 1
        if not args.trace:
            phase = runner.run_cycles(args.seconds)
            metrics, extra = end_to_end(phase, setup)
        else:
            untraced = runner.run_cycles(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            traced = runner.run_cycles(args.seconds / 2)
            overhead = traced.s_per_op / untraced.s_per_op - 1.0
            metrics = tracer.metrics(len(traced.durations), overhead)
            extra = {
                "untraced.ops_per_s": (untraced.ops_per_s, "1/s"),
                "traced.ops_per_s": (traced.ops_per_s, "1/s"),
                "traced.ops": (len(traced.durations), "count"),
            }
            tracer.write(str(OUT / f"{stem}-spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    extra["failed_frac"] = (len(runner.failures) / runner.attempted, "fraction")

    print_metrics("metric", metrics)
    print_metrics("info", extra)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": as_json(metrics),
    }
    record = dict(
        result,
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        environment=env,
        info=as_json(extra),
        setup_samples_s=setup,
        failures=runner.failures,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the last line maps workload to result."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmoney" / "__init__.py").is_file():
        print(f"error: no qmoney sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
