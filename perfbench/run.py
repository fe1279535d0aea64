"""Run one workload of the tailsum benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    # the sampler must take its default thread count
    env.pop("TAILSUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _worker(root: Path, work: Path, out: Path, args: list) -> tuple:
    """Run ``worker.py`` to completion; return (wall seconds, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work), "--out", str(out), *args]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=root, env=_child_env(root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {CHILD_TIMEOUT_S} s: {cmd}") from exc
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchmarkError(
            f"worker exited with {done.returncode}: {cmd}\n{done.stderr[-4000:]}"
        )
    return wall, json.loads(out.read_text(encoding="utf-8"))


def _percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def _typical(times: dict) -> float:
    """Median over distinct work of each one's fastest repeat.

    ``times`` maps a work id to the times of its repeats. The host's speed
    drifts by up to 40% within seconds, and the fastest repeat of a
    fixed job moves far less with it than the median repeat (README.md).
    """
    return statistics.median(min(v) for v in times.values())


def end_to_end(setups: list, result: dict) -> tuple:
    """End-to-end metrics and the sample count behind each."""
    walls = {}
    for p in result["passes"]:
        walls.setdefault(p["work"], []).append(p["wall_s"])
    tails, vars_ = result["ops"]["tail"], result["ops"]["var"]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mib"],
        "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"],
        "pass_s": _typical(walls),
        # median over the distinct ops of each one's best time
        "tail_ms_p50": statistics.median(tails["best"].values()) * 1e3,
        "var_ms_p50": statistics.median(vars_["best"].values()) * 1e3,
    }
    counts = {
        "setup_s": {"distinct": 1, "timed": len(setups)},
        "pass_s": {"distinct": len(walls), "timed": len(result["passes"])},
        "tail_ms_p50": {"distinct": len(tails["best"]), "timed": len(tails["times"])},
        "var_ms_p50": {"distinct": len(vars_["best"]), "timed": len(vars_["times"])},
    }
    return metrics, counts


def per_layer(setup_imports: list, result: dict) -> dict:
    layers = dict(result["layers"])
    layers["cli.import_s"] = statistics.median(setup_imports)
    # passes 2k and 2k + 1 do the same work, one of them traced
    pairs = []
    for a, b in zip(result["passes"][::2], result["passes"][1::2]):
        if a["work"] != b["work"] or a["traced"] == b["traced"]:
            raise BenchmarkError("traced and untraced passes do not pair up")
        traced, untraced = (a, b) if a["traced"] else (b, a)
        pairs.append((traced["wall_s"], untraced["wall_s"]))
    layers["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
    layers["trace.overhead_frac"] = statistics.median(t / u - 1.0 for t, u in pairs)
    return layers


def _latency_table(result: dict) -> list:
    lines = ["op latency (ms): kind, samples, p50, p90, p99 (p99 only with >= 1000 samples)"]
    for kind, timed in sorted(result["ops"].items()):
        vals = [s * 1e3 for s in timed["times"]]
        p90 = f"{_percentile(vals, 90):.4f}" if len(vals) >= 2 else "-"
        p99 = f"{_percentile(vals, 99):.4f}" if len(vals) >= 1000 else "-"
        lines.append(
            f"  {kind:10s} {len(vals):6d} {statistics.median(vals):12.4f} {p90:>12s} {p99:>12s}"
        )
    return lines


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "tailsum" / "__init__.py").is_file():
        print(f"error: no tailsum sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = _spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--trace", str(args.trace)]
        setups, imports = [], []
        for i in range(SETUP_REPEATS):
            wall, out = _worker(root, work, work / f"setup{i}.json", ["--role", "setup", *common])
            setups.append(wall)
            imports.append(out["import_s"])
        _, result = _worker(root, work, work / "run.json", [
            "--role", "run", *common, "--seconds", repr(args.seconds),
        ])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, counts = per_layer(imports, result), {}
    else:
        metrics, counts = end_to_end(setups, result)
    if set(metrics) != set(declared):
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ set(declared))} are not declared in "
            "BENCHMARK.json or were not measured"
        )

    provenance = dict(result["provenance"], **result["detail"])
    provenance.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "samples": counts, "passes": len(result["passes"]),
        "warmup_pass_s": result["warmup_s"],
    })

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in declared.items():
        print(f"  {name:58s} {metrics[name]:16.6g} {unit}")
    for line in _latency_table(result):
        print(line)
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
