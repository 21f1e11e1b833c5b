"""Rebuild perfbench/reference.json from the diagcat in this checkout.

    python3 perfbench/make_reference.py [--part compose-stream|monoid-tables|word-engine|suite]
                                        [--seeds 0-9]

The stored references are what ``run.py`` checks outputs against: chunk
digests of the compose-stream for the listed seeds, table sizes and
dead-block counts, identity verdicts, and the suite's detail strings.
Verdicts that differ between seeds are stored as ``unknown``, which any
verdict satisfies.  Rebuild only when the benchmark's inputs change on
purpose; a rebuild accepts whatever the current program outputs.

Also prints the share of repeated inputs each workload presents: operand
pairs (of the hom(3,3) table, of the compose stream, and of the products
``build_ann_monoid`` forms), words, and the substitutions that
budget-exhausting identity searches draw (replayed from the seeded
sampler in ``check_identity``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from diagcat import identities  # noqa: E402
from tracing import NullTracer  # noqa: E402

REFERENCE = HERE / "reference.json"
COMPOSE_CHUNKS = 12


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(name: str, seed: int, **kw):
    w = workloads.WORKLOADS[name](seed, workloads.SIZES[name]["full"], {})
    w.setup()
    res = w.run(NullTracer(), perf_counter, **kw)
    if res.failed:
        raise SystemExit(f"{name} seed {seed}: {res.failed} failed: {res.errors}")
    return w, res


def _merge_verdicts(runs: list[dict]) -> dict:
    keys = sorted({k for r in runs for k in r})
    out = {}
    for key in keys:
        statuses = {r.get(key) for r in runs}
        out[key] = statuses.pop() if len(statuses) == 1 else "unknown"
    return out


def _verdicts(res) -> dict:
    return {
        k[len("verdict."):]: v for k, v in res.counts.items() if k.startswith("verdict.")
    }


def substitution_repeat_share(pairs, budget: int, seed: int) -> float:
    """Share of repeated substitutions over the searches that use their
    whole budget, replaying check_identity's order: exhaustive over the
    elements when that fits, else a pool sweep when that fits, then
    seeded samples from the pool."""
    drawn = repeated = 0
    for ident, monoid in pairs:
        k = len(identities._identity_letters(ident))
        domain = monoid.elements
        if domain is not None and len(domain) ** k <= budget:
            drawn += len(domain) ** k
            continue
        pool = tuple(monoid.pool) or tuple(domain or ())
        seen = set()
        spent = 0
        if len(pool) ** k <= budget:
            seen.update(itertools.product(range(len(pool)), repeat=k))
            spent = len(seen)
        rng = random.Random(seed)
        while spent < budget:
            values = tuple(pool.index(rng.choice(pool)) for _ in range(k))
            repeated += values in seen
            seen.add(values)
            spent += 1
        drawn += spent
    return repeated / max(1, drawn)


def closure_repeat_share(sizes) -> tuple[int, int]:
    """Products and repeated operand pairs in ``build_ann_monoid`` for
    each n: the closure forms both x*y and y*x against every element, and
    the table then forms every product again.  Counted by wrapping
    ``AnnularPartition.__mul__`` while the monoids are built."""
    cls = workloads.annular.AnnularPartition
    plain = cls.__mul__
    seen: set = set()
    calls = repeated = 0

    def counting(x, y):
        nonlocal calls, repeated
        key = (x.base, y.base)
        calls += 1
        repeated += key in seen
        seen.add(key)
        return plain(x, y)

    cls.__mul__ = counting
    try:
        for n in sizes:
            seen.clear()
            workloads.annular.build_ann_monoid(n)
    finally:
        cls.__mul__ = plain
    return calls, repeated


def _undecided(res, monoids):
    pairs = []
    for key, status in _verdicts(res).items():
        if status == "unknown":
            mname, ident_name = key.split("/")
            pairs.append((identities.IDENTITY_REGISTRY[ident_name], monoids[mname]))
    return pairs


def save(part: str, value: dict) -> None:
    """Store one part, re-reading the file first so that parts rebuilt by
    separate processes do not overwrite each other."""
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    stored[part] = value
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--part", choices=list(workloads.WORKLOADS), action="append")
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    parts = args.part or list(workloads.WORKLOADS)
    seeds = _seeds(args.seeds)

    if "compose-stream" in parts:
        sizes = workloads.SIZES["compose-stream"]["full"]
        digests = {}
        for seed in seeds:
            _, res = _run("compose-stream", seed, seconds=float("inf"),
                          max_ops=COMPOSE_CHUNKS * sizes["chunk"])
            digests[str(seed)] = res.counts["digests"]
            print("compose-stream", seed, res.counts["retired_buckets"], "retired buckets", flush=True)
        save("compose-stream", {**sizes, "digests": digests})
        print("compose-stream: repeated operand pairs 0 (pairs are drawn without repetition)")

    if "monoid-tables" in parts:
        runs = []
        for seed in seeds[:3]:
            w, res = _run("monoid-tables", seed)
            runs.append(_verdicts(res))
        counts = {k: v for k, v in res.counts.items() if k.startswith(("hom33", "ann", "enum")) and "." not in k}
        save("monoid-tables", {"counts": counts, "budget": w.budget, "verdicts": _merge_verdicts(runs)})
        tables = {f"ann{n}": identities.monoid_from_table(workloads.annular.build_ann_monoid(n).monoid, f"ann{n}")
                  for n in (3, 4)}
        share = substitution_repeat_share(_undecided(res, tables), w.budget, seeds[0])
        print(f"monoid-tables: repeated substitutions {share:.4f}; hom(3,3) pairs repeat 0")
        calls, repeated = closure_repeat_share(w.ann_sizes)
        print(f"monoid-tables: build_ann_monoid{tuple(w.ann_sizes)} forms {calls} products, "
              f"{repeated} of them ({repeated / calls:.4f}) on an operand pair formed before")

    if "word-engine" in parts:
        runs = []
        for seed in seeds:
            w, res = _run("word-engine", seed)
            runs.append(_verdicts(res))
        products = {k[len("products."):]: v for k, v in res.counts.items() if k.startswith("products.")}
        save("word-engine", {"budget": w.budget, "verdicts": _merge_verdicts(runs), "products": products})
        share = substitution_repeat_share(_undecided(res, w.monoids), w.budget, seeds[-1])
        print(f"word-engine: repeated substitutions {share:.4f}; words repeat 0")

    if "suite" in parts:
        details = {}
        for seed in seeds:
            report = workloads.suite.run_suite(seed)
            if not report.ok():
                raise SystemExit(f"suite seed {seed} fails")
            details[str(seed)] = {r.check: r.detail for r in report.results}
            print("suite", seed, flush=True)
        save("suite", {"details": details})


if __name__ == "__main__":
    main()
