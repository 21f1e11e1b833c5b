"""One measured pass (or one set-up) of a workload in a fresh interpreter.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py '<json config>'

The config names the workload, seed, size set, mode (``setup`` or
``pass``), whether to trace, and for ``compose-stream`` how long to run
its closed loop.  The worker puts the checkout's ``src`` first on the
import path, so it measures the diagcat next to it, and prints one JSON
object as its last line of output.  Every time it reports is converted
by a ``speed.SpeedClock`` into reference seconds; ``by_clock`` holds the
same timed intervals as raw wall time and as CPU time.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(config: dict) -> dict:
    clock = SpeedClock()
    clock.start()
    try:
        t0 = clock()
        sys.path.insert(0, str(ROOT / "src"))
        import diagcat

        if Path(diagcat.__file__).resolve().parent != ROOT / "src" / "diagcat":
            raise SystemExit(f"imported diagcat from {diagcat.__file__}, not from this checkout")
        import workloads
        from tracing import NullTracer, Tracer

        t_import = clock()
        name = config["workload"]
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        sizes = workloads.SIZES[name][config["size"]]
        workload = workloads.WORKLOADS[name](config["seed"], sizes, reference)
        workload.setup()
        t_setup = clock()
        res = tracer = None
        if config["mode"] == "pass":
            tracer = Tracer(clock) if config["trace"] else NullTracer()
            res = workload.run(tracer, clock, config.get("seconds"))
        t_end = clock()
    finally:
        clock.stop()

    out = {"setup_s": clock.duration(t0, t_setup), "import_s": clock.duration(t0, t_import)}
    out["clock"] = {
        "raw_s": t_end - t0,
        "reference_s": clock.duration(t0, t_end),
        "loop_samples": len(clock.starts),
        "loop_s": clock.loop_s,
    }
    if res is None:
        return out
    lat = res.latencies
    intervals = [(lat[i], lat[i + 1]) for i in range(0, len(lat), 2)]
    # The same timed intervals as raw wall time and as CPU time, kept next
    # to the reference seconds so that the clocks can be compared.
    out["by_clock"] = {
        name: {
            "wall_s": sum(convert(a, b) for a, b in res.walls),
            "latencies_s": [convert(a, b) for a, b in intervals],
        }
        for name, convert in (("raw", lambda a, b: b - a), ("cpu", clock.cpu_duration))
    }
    out.update(
        wall_s=sum(clock.duration(a, b) for a, b in res.walls),
        attempted=res.attempted,
        failed=res.failed,
        searches=res.searches,
        undecided=res.undecided,
        latencies_s=[clock.duration(a, b) for a, b in intervals],
        counts=res.counts,
        errors=res.errors,
        provenance=workloads.provenance(),
        sizes=sizes,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer.enabled:
        samples = res.samples
        for span in {rec[0] for rec in tracer.spans}:
            if span.startswith("bench."):
                continue
            metric, scale, total = workloads.span_metric(span)
            values = [d * scale for d in tracer.durations(span, clock.duration)]
            samples.setdefault(metric, []).extend([sum(values)] if total else values)
        out["samples"] = samples
        out["self_s"] = tracer.self_times(clock.duration)
        out["spans"] = len(tracer.spans)
        if config.get("spans_path"):
            tracer.dump(ROOT / config["spans_path"])
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result, separators=(",", ":")))
