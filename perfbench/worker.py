"""One benchmark process: set-up only, or a closed-loop run of a workload.

``run.py`` starts this script in a fresh interpreter with ``src`` on the
import path and reads the JSON it writes to ``--out``. Only the standard
library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _setup(args) -> dict:
    start = time.perf_counter()
    import tailsum
    import tailsum.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    imported = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload].build(args.seed, Path(args.work), args.trace)
    built = time.perf_counter()
    return {"import_s": imported - start, "build_s": built - imported}


def _peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class _Tally:
    """Checks and times the ops of a run as they arrive. Per operation it
    keeps only 8 bytes, its time, so the peak RSS stays the program's."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures = []
        self.answers = {}  # key -> first answer
        self.agreeing = {}  # key -> ops that gave that answer
        self.best = {}  # kind -> key -> fastest untraced time
        self.times = {}  # kind -> every untraced time

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def add(self, ops: list, counted: bool) -> None:
        for op in ops:
            self.attempted += 1
            if counted:
                best = self.best.setdefault(op.kind, {})
                best[op.key] = min(op.seconds, best.get(op.key, op.seconds))
                self.times.setdefault(op.kind, array.array("d")).append(op.seconds)
            if op.error is None and op.value is not None:
                first = self.answers.setdefault(op.key, op.value)
                if op.value != first:
                    op.error = f"answer for {op.key} changed between passes: {op.value!r} != {first!r}"
                else:
                    self.agreeing[op.key] = self.agreeing.get(op.key, 0) + 1
            if op.error is not None:
                self.fail(op.error)

    def reject(self, key: str, message: str) -> None:
        """Fail every op of ``key`` that gave the first answer."""
        self.fail(f"{key}: {message}", self.agreeing[key])

    def expect(self, key: str, want, what: str) -> None:
        """Fail every op of ``key`` if its answer is not ``want``."""
        got = self.answers.get(key)
        if got is not None and got != want:
            self.reject(key, f"{got!r} != {what} {want!r}")


def _run(args) -> dict:
    import numpy
    import scipy

    import tailsum
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, Path(args.work), args.trace)
    tracer = tracing.Tracer() if args.trace else None
    tally, passes = _Tally(), []

    def one_pass(traced: bool, index: int, counted: bool) -> float:
        start = time.perf_counter()
        if traced:
            with tracing.install(tracer):
                ops = workload.run_pass(inputs, tracer, index)
        else:
            ops = workload.run_pass(inputs, None, index)
        wall = time.perf_counter() - start
        tally.add(ops, counted and not traced)
        if counted:
            passes.append({
                "wall_s": wall, "traced": traced,
                # passes with equal work ids repeat identical work
                "work": hashlib.sha1(
                    "\n".join(sorted(op.key for op in ops)).encode()
                ).hexdigest(),
            })
        return wall

    warmup = one_pass(False, 0, counted=False)

    # Start passes until the budget is spent, and in the traced run an even
    # number: passes 2k and 2k + 1 do the same work, one traced and one not,
    # the traced one first in every other pair.
    start = time.perf_counter()
    while (len(passes) < 2 or time.perf_counter() - start < args.seconds
           or (args.trace and len(passes) % 2)):
        traced = bool(args.trace) and (len(passes) + len(passes) // 2) % 2 == 1
        one_pass(traced, len(passes), counted=True)

    cli_children = workload.kind == "cli" and not args.trace
    peak = _peak_rss_mib(children=cli_children)

    detail = {}
    sample_1thread_s = None
    if workload.kind == "mc":
        recount = workloads.mc_recount(inputs)
        for key, want in recount["expected"].items():
            tally.expect(key, want, "numpy recount")
        tally.attempted += 1
        if not recount["threads_agree"]:
            tally.fail("sample drawn with threads=1 differs from the default-thread sample")
        sample_1thread_s = recount["sample_1thread_s"]
        detail["sample_1thread_s"] = sample_1thread_s
    if workload.kind == "analytic":
        logerr, too_far = workloads.analytic_reference(inputs, tally.answers)
        detail.update(logerr)
        for key, message in too_far.items():
            tally.reject(key, message)

    result = {
        "passes": passes,
        "warmup_s": warmup,
        "ops": {
            kind: {"best": tally.best[kind], "times": tally.times[kind].tolist()}
            for kind in tally.best
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "peak_rss_mib": peak,
        "detail": detail,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "tailsum": tailsum.__version__,
            "sampler_threads": tailsum.montecarlo._resolve_threads(None),
            "n": getattr(inputs, "n", None),
        },
        "layers": None,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, sum(p["traced"] for p in passes))
        untraced_samples = result["ops"].get("sample", {}).get("times")
        threads = layers["montecarlo.sample_pairs.threads"]
        if sample_1thread_s is not None and untraced_samples and threads:
            t_n = statistics.median(untraced_samples)
            layers["montecarlo.sample_pairs.ns_per_pair_1thread"] = (
                sample_1thread_s * 1e9 / inputs.n
            )
            layers["montecarlo.sample_pairs.thread_efficiency"] = sample_1thread_s / (
                threads * t_n
            )
        else:
            layers["montecarlo.sample_pairs.ns_per_pair_1thread"] = 0.0
            layers["montecarlo.sample_pairs.thread_efficiency"] = 0.0
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = _setup(args) if args.role == "setup" else _run(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
