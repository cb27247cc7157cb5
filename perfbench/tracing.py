"""Traced mode: spans around the public functions of each ``qmoney`` module.

The wrappers are installed from the benchmark, without editing ``src/``: every
``qmoney`` module attribute that is one of the functions listed in ``LAYERS``
is replaced by a wrapper, so calls through a module (``linalg.hermitian_eig``)
and through a re-export (``qmoney.certify``) are both seen.  A span is
(name, start, end, parent span, op id); spans stay in memory and are written
once, when the run ends.  ``simulator.batches`` is observed by wrapping each
``batch_fn`` that the simulator hands to its private ``_sum_batches``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import Counter
from time import perf_counter

from qmoney import simulator

LAYERS = {
    "cli": ("main",),
    "schemes": (
        "load_scheme",
        "cloning_objective",
        "symmetric_cloning_objective",
        "classical_objective_blocks",
        "assemble_challenge_block",
    ),
    "sdp": ("solve", "solve_block_diagonal", "assemble_block_sdp"),
    "linalg": ("hermitian_eig", "partial_trace", "permutation_operator", "as_hermitian"),
    "certificates": ("certify", "load_certificate", "certificate_payload"),
    "composition": ("repeated_sdp", "tensor_certificates"),
    "channels": ("apply_channel", "success_probability"),
    "cloners": (
        "wiesner_optimal_cloner",
        "buzek_hillery_cloner",
        "werner_cloner",
        "pauli_operators",
        "ticket_cloner",
        "evaluate_ticket_strategy",
    ),
    "simulator": (
        "simulate_quantum_attack",
        "simulate_ticket_attack",
        "simulate_honest_verification",
        "simulate_bell_attack",
    ),
}

SIMULATIONS = tuple(f"simulator.{name}" for name in LAYERS["simulator"])


class Tracer:
    """Span recorder plus the exact work counters read at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"qmoney.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qmoney" and not mod_name.startswith("qmoney."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
        self._count_batches()

    def _count_batches(self) -> None:
        """Count the batches the simulator really runs, in whatever threads.

        If the program no longer has ``_sum_batches``, the count stays 0 and a
        warning says why.
        """
        sum_batches = getattr(simulator, "_sum_batches", None)
        if sum_batches is None:
            print("warning: qmoney.simulator._sum_batches is gone; simulator.batches is 0",
                  file=sys.stderr)
            return

        def counted_sum_batches(trials, seed, batch_fn):
            def counted(*args, **kwargs):
                with self._lock:
                    self.counters["simulator.batches"] += 1
                return batch_fn(*args, **kwargs)

            return sum_batches(trials, seed, counted)

        simulator._sum_batches = counted_sum_batches

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, handle)

    def metrics(self, ops: int, overhead_frac: float) -> dict:
        """Per-layer metrics, each normalised per op of the traced phase."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start

        def outermost(names) -> list[int]:
            """Spans in ``names`` that no other span in ``names`` encloses."""
            picked = []
            for i, span in enumerate(spans):
                if span[0] not in names:
                    continue
                parent = span[3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    picked.append(i)
            return picked

        def busy_ms(*names) -> float:
            return sum(spans[i][2] - spans[i][1] for i in outermost(set(names))) * 1e3 / ops

        def self_ms(name) -> float:
            return sum(
                spans[i][2] - spans[i][1] - covered[i] for i in outermost({name})
            ) * 1e3 / ops

        def calls(name) -> float:
            return sum(1 for span in spans if span[0] == name) / ops

        def layer(name) -> tuple:
            return tuple(f"{name}.{fn}" for fn in LAYERS[name])

        c = self.counters
        solves = sum(1 for span in spans if span[0] == "sdp.solve")
        certifies = sum(1 for span in spans if span[0] == "certificates.certify")
        sim_busy_s = busy_ms(*SIMULATIONS) * ops / 1e3
        ms, count = "ms", "count"
        return {
            "cli.main.self_ms": (self_ms("cli.main"), ms),
            "schemes.busy_ms": (busy_ms(*layer("schemes")), ms),
            "sdp.solve.calls": (calls("sdp.solve"), count),
            "sdp.solve.busy_ms": (busy_ms("sdp.solve"), ms),
            "sdp.solve.self_ms": (self_ms("sdp.solve"), ms),
            "sdp.assemble_block_sdp.busy_ms": (busy_ms("sdp.assemble_block_sdp"), ms),
            "sdp.iterations_per_solve": (c["sdp.iterations"] / solves if solves else 0.0, count),
            "linalg.hermitian_eig.calls": (calls("linalg.hermitian_eig"), count),
            "linalg.hermitian_eig.busy_ms": (busy_ms("linalg.hermitian_eig"), ms),
            "linalg.hermitian_eig.n3_sum": (c["linalg.hermitian_eig.n3"] / ops, count),
            "linalg.partial_trace.busy_ms": (busy_ms("linalg.partial_trace"), ms),
            "linalg.permutation_operator.busy_ms": (busy_ms("linalg.permutation_operator"), ms),
            "linalg.as_hermitian.calls": (calls("linalg.as_hermitian"), count),
            "certificates.certify.calls": (calls("certificates.certify"), count),
            "certificates.certify.busy_ms": (busy_ms("certificates.certify"), ms),
            "certificates.io_ms": (
                busy_ms("certificates.load_certificate", "certificates.certificate_payload"), ms
            ),
            "certificates.certified_ratio": (
                c["certificates.certified"] / certifies if certifies else 0.0, "ratio"
            ),
            "composition.repeated_sdp.busy_ms": (busy_ms("composition.repeated_sdp"), ms),
            "composition.tensor_certificates.busy_ms": (
                busy_ms("composition.tensor_certificates"), ms
            ),
            "channels.busy_ms": (busy_ms(*layer("channels")), ms),
            "cloners.busy_ms": (busy_ms(*layer("cloners")), ms),
            "simulator.busy_ms": (busy_ms(*SIMULATIONS), ms),
            "simulator.batches": (c["simulator.batches"] / ops, count),
            "simulator.workers": (simulator.worker_count(), count),
            "simulator.trials_per_s": (
                c["simulator.trials"] / sim_busy_s if sim_busy_s else 0.0, "1/s"
            ),
            "trace.overhead_frac": (overhead_frac, "fraction"),
        }


def _count_eig(counters, args, result):
    n = len(args[0])
    counters["linalg.hermitian_eig.n3"] += n**3


def _count_solve(counters, args, result):
    counters["sdp.iterations"] += result.iterations


def _count_certify(counters, args, result):
    counters["certificates.certified"] += bool(result.certified)


def _count_simulation(counters, args, result):
    counters["simulator.trials"] += result.trials


COUNTERS = {
    "linalg.hermitian_eig": _count_eig,
    "sdp.solve": _count_solve,
    "certificates.certify": _count_certify,
    **{name: _count_simulation for name in SIMULATIONS},
}
