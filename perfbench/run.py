"""diagcat benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload compose-stream --seed 0 --seconds 10 --trace 0

Workloads: compose-stream, monoid-tables, word-engine, suite (see
perfbench/README.md).  Every measured pass runs in a fresh interpreter
(``worker.py``), one at a time, so caches inside diagcat never carry over
from one pass to the next.  ``--trace 0`` prints the end-to-end metrics
named in BENCHMARK.json; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics, including the tracing overhead.
``--smoke`` runs the toy input sizes used by the benchmark's own test.

The last line of standard output is the result object; a fuller record
with provenance goes to perfbench/out/.  Exits 2 without a result when
the checkout has no diagcat sources to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
START_DEADLINE_S = 150.0  # start no pass that would likely end after this
HARD_DEADLINE_S = 175.0
FIXED_REQUESTS = 10000  # compose-stream: wall_s is the time of this many requests
# Numeric libraries stay on the worker's one thread, whose CPU time the
# clock reads.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(config: dict, started: float) -> dict:
    remaining = HARD_DEADLINE_S - (time.monotonic() - started)
    if remaining <= 1:
        raise RuntimeError("no time left for another pass")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=ROOT,
        env={**os.environ, **SINGLE_THREADED},
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker for {config['workload']} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args, spec: dict) -> tuple[dict, dict]:
    started = time.monotonic()
    size = "smoke" if args.smoke else "full"
    base = {"workload": args.workload, "seed": args.seed, "size": size}
    stream = args.workload == "compose-stream"
    passes, traced, untraced = [], [], []

    def one_pass(trace: bool, seconds: float, index: int) -> dict:
        config = {**base, "mode": "pass", "trace": trace, "seconds": seconds}
        if trace:
            OUT.mkdir(exist_ok=True)
            config["spans_path"] = str(
                (OUT / f"spans-{args.workload}-seed{args.seed}-pass{index}.json").relative_to(ROOT)
            )
        res = _worker(config, started)
        passes.append(res)
        (traced if trace else untraced).append(res)
        return res

    # Untraced passes give the end-to-end numbers; with --trace 1 each
    # untraced pass is paired with a traced pass over the same inputs.
    modes = [False, True] if args.trace else [False]
    if stream:
        for trace in modes:
            one_pass(trace, args.seconds / len(modes), len(passes))
    else:
        # As many passes as fit --seconds at the first pass's pace, at least one.
        t0 = time.monotonic()
        for trace in modes:
            one_pass(trace, None, len(passes))
        per_round = time.monotonic() - t0
        rounds = max(1, round(args.seconds / max(untraced[0]["wall_s"], 1e-9)))
        for _ in range(rounds - 1):
            elapsed = time.monotonic() - started
            if elapsed >= 3 * args.seconds or elapsed + 1.2 * per_round > START_DEADLINE_S:
                break
            for trace in modes:
                one_pass(trace, None, len(passes))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker({**base, "mode": "setup", "trace": False}, started)["setup_s"])

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    searches = sum(p["searches"] for p in passes)
    undecided = sum(p["undecided"] for p in passes)
    metrics: dict[str, float] = {}
    by_clock: dict[str, dict] = {}
    if not args.trace:
        def timings(times: list[dict]) -> dict:
            """The timed end-to-end metrics from each untraced pass's
            ``wall_s`` and ``latencies_s`` on one clock."""
            lat = [x for t in times for x in t["latencies_s"]]
            if stream:
                first = lat[:FIXED_REQUESTS]
                wall = sum(first) * FIXED_REQUESTS / max(1, len(first))
            else:
                wall = statistics.median(t["wall_s"] for t in times)
            return {
                "ops_per_s": sum(p["attempted"] for p in untraced) / sum(t["wall_s"] for t in times),
                "latency_p50_us": statistics.median(lat) * 1e6,
                "latency_p99_us": _percentile(lat, 0.99) * 1e6,
                "wall_s": wall,
            }

        metrics = {
            **timings(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["rss_mb"] for p in untraced),
        }
        by_clock = {"reference": timings(untraced)}
        for name in untraced[0]["by_clock"]:
            by_clock[name] = timings([p["by_clock"][name] for p in untraced])
    else:
        samples: dict[str, list] = {}
        for p in traced:
            for name, values in p["samples"].items():
                samples.setdefault(name, []).extend(values)
            for name, value in p["counts"].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    samples.setdefault(name, []).append(value)
        metrics = {name: statistics.median(v) for name, v in samples.items() if v}
        traced_wall = sum(p["wall_s"] for p in traced)
        for layer in LAYERS:
            self_s = sum(p["self_s"].get(layer, 0.0) for p in traced)
            metrics[f"{layer}.self_s"] = self_s / len(traced)
            metrics[f"{layer}.busy_share"] = self_s / traced_wall
        per_op_traced = traced_wall / max(1, sum(p["attempted"] for p in traced))
        per_op_plain = sum(p["wall_s"] for p in untraced) / max(1, sum(p["attempted"] for p in untraced))
        metrics["trace.overhead_s"] = (per_op_traced - per_op_plain) * sum(p["attempted"] for p in traced) / len(traced)
        metrics["trace.overhead_share"] = per_op_traced / per_op_plain - 1.0
        metrics["trace.spans"] = sum(p["spans"] for p in traced) / len(traced)
        metrics["failed_share"] = failed / max(1, attempted)
        metrics["undecided_share"] = undecided / max(1, searches)

    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec[kind]
        },
    }
    record = {
        "provenance": {
            "commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": passes[0]["provenance"]["numpy"],
            "diagcat": passes[0]["provenance"]["diagcat"],
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "sizes": passes[0]["sizes"],
        "setup_samples_s": setups,
        "latency_samples": sum(len(p["latencies_s"]) for p in untraced),
        "metrics_by_clock": by_clock,
        "passes": [
            {
                **{k: v for k, v in p.items() if k not in ("latencies_s", "samples", "sizes", "by_clock")},
                "latency_samples": len(p["latencies_s"]),
                "raw_wall_s": p["by_clock"]["raw"]["wall_s"],
                "cpu_wall_s": p["by_clock"]["cpu"]["wall_s"],
            }
            for p in passes
        ],
        "elapsed_s": time.monotonic() - started,
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy input sizes")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "diagcat" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: no src/diagcat or BENCHMARK.json in this checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in record["passes"]:
        for err in p.get("errors", []):
            print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
