"""Control for the benchmark's clock: do changes of known size come out
at their true ratio, and does the correction hold for numpy work?

    python3 perfbench/clock_check.py [--rounds 20] [--load 2]

One interpreter runs a ``speed.SpeedClock`` as a benchmark pass does and
times short chunks of work in interleaved rounds, so that a change in the
machine's speed hits every kind of chunk alike:

- ``python`` / ``python-2x``: ``partitions.compose`` over hom(3,3) pairs,
  pure Python, at size 1x and 2x (true ratio 2);
- ``numpy`` / ``numpy-2x``: ``numpy.sort`` of a million floats at 1x and
  2x (true ratio 2);
- ``keep`` / ``keep-heap``: composes that keep their products, without and
  with a million extra live lists; the products survive, so the
  collector's full passes traverse the extra lists too: a slowdown of the
  program's own making, which a correction must not divide out.  Its
  true size is the ``raw`` ratio of neighbouring chunks.

Each chunk is reported as reference seconds (``reference``), raw wall
time (``raw``) and thread CPU time (``cpu``).  The script prints, per
chunk kind and clock, the median, the spread (interquartile range over
median) and the ratio to the 1x chunk of the same round (median over
rounds).  It runs once alone and once next to ``--load`` spinning
processes that compete for the cores, and prints loaded over alone; the
spinners are stopped before it exits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLOCKS = ("reference", "raw", "cpu")
KINDS = ("python", "python-2x", "numpy", "numpy-2x", "keep", "keep-heap")
BASE = {"python-2x": "python", "numpy-2x": "numpy", "keep-heap": "keep"}


def chunks(rounds: int) -> dict:
    """Durations of every chunk, per kind and clock, in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from speed import SpeedClock

    from diagcat import partitions

    hom = list(partitions.enumerate_partitions(3, 3))
    pairs = [(x, y) for x in hom[:25] for y in hom]
    data = numpy.random.default_rng(0).random(1_000_000)

    def compose(times):
        for _ in range(times):
            for x, y in pairs:
                partitions.compose(x, y)

    def sort(times):
        for _ in range(2 * times):
            numpy.sort(data)

    def keep():
        return [partitions.compose(x, y) for _ in range(3) for x, y in pairs]

    out = {kind: {clock: [] for clock in CLOCKS} for kind in KINDS}
    clock = SpeedClock()
    clock.start()
    marks = []

    def timed(kind, fn, *args):
        t0 = clock()
        fn(*args)
        marks.append((kind, t0, clock()))

    compose(1)
    sort(1)
    for _ in range(rounds):
        timed("python", compose, 1)
        timed("python-2x", compose, 2)
        timed("numpy", sort, 1)
        timed("numpy-2x", sort, 2)
        timed("keep", keep)
        ballast = [[i] for i in range(1_000_000)]
        timed("keep-heap", keep)
        del ballast
    clock.stop()
    for kind, t0, t1 in marks:
        out[kind]["reference"].append(clock.duration(t0, t1))
        out[kind]["raw"].append(t1 - t0)
        out[kind]["cpu"].append(clock.cpu_duration(t0, t1))
    return out


def measure(rounds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--chunks", str(rounds)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--load", type=int, default=2)
    parser.add_argument("--chunks", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.chunks:
        print(json.dumps(chunks(args.chunks)))
        return

    alone = measure(args.rounds)
    spinners = [
        subprocess.Popen([sys.executable, "-c", "while True: pass"]) for _ in range(args.load)
    ]
    try:
        loaded = measure(args.rounds)
    finally:
        for p in spinners:
            p.kill()
        for p in spinners:
            p.wait()

    print(f"{'chunk':10} {'clock':10} {'median s':>9} {'spread':>7} {'ratio':>6} "
          f"{'loaded spread':>13} {'loaded ratio':>12} {'loaded/alone':>12}")
    for kind in KINDS:
        for clock in CLOCKS:
            a, b = alone[kind][clock], loaded[kind][clock]
            row = f"{kind:10} {clock:10} {statistics.median(a):9.4f} {spread(a):7.3f} "
            if kind in BASE:
                ratio = [statistics.median(x / y for x, y in zip(run[kind][clock], run[BASE[kind]][clock]))
                         for run in (alone, loaded)]
                row += f"{ratio[0]:6.3f} {spread(b):13.3f} {ratio[1]:12.3f} "
            else:
                row += f"{'':6} {spread(b):13.3f} {'':12} "
            print(row + f"{statistics.median(b) / statistics.median(a):12.3f}")


if __name__ == "__main__":
    main()
