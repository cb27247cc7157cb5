"""Self-test of the benchmark, about two minutes on two cores.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that a short run of each workload prints every end-to-end and
per-layer metric listed in BENCHMARK.json with its unit, that the exact counts
repeat across two traced runs on one seed, that a wrong expected value is
reported as a failed op, and that the benchmark refuses to run without the
program's sources.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("sdp.iterations_per_solve", "linalg.hermitian_eig.n3_sum", "simulator.batches")
SEED = 3


def run(workload: str, seconds: float, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(got: dict, declared: list[dict], where: str) -> list[str]:
    problems = []
    if set(got["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{where}: metrics {sorted(got['metrics'])} differ from BENCHMARK.json")
    for m in declared:
        unit = got["metrics"].get(m["name"], {}).get("unit")
        if unit != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {unit!r}, expected {m['unit']!r}")
    return problems


def wrong_expectation_fails() -> list[str]:
    """Run one cycle in this process with the six-state value 2/3 made wrong;
    ``analyze six-state`` and the six-state simulation must then fail."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    import workloads

    workloads.SIX_STATE += 0.01
    problems = []
    for name in ("cli-small", "monte-carlo"):
        with tempfile.TemporaryDirectory(prefix="wrong-", dir=ROOT / ".perfbench_work") as workdir:
            runner = run.Runner(workloads.WORKLOADS[name](SEED, workdir))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                phase = runner.run_cycles(0)
        if not runner.failures or "FAILED op" not in out.getvalue():
            problems.append(f"{name}: a wrong expected value was not reported as failed")
        if phase.correct != len(phase.durations) - len(runner.failures):
            problems.append(f"{name}: failed ops were counted as correct")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = result(run(workload, 1, 0))
        if set(plain) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}: result keys {sorted(plain)}")
        if not plain["correct"] or plain["failed"]:
            problems.append(f"{workload}: {plain['failed']} of {plain['attempted']} ops failed")
        problems += check_names(plain, spec["end_to_end"], f"{workload} trace 0")
        first, second = (result(run(workload, 1, 1)) for _ in range(2))
        problems += check_names(first, spec["per_layer"], f"{workload} trace 1")
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} is {a!r} then {b!r} on seed {SEED}")
        print(f"checked {workload}", flush=True)

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    problems += wrong_expectation_fails()
    print("checked wrong expected values", flush=True)

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("cli-small", 1, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the sources the benchmark still ran or printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("checked a checkout without sources", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
