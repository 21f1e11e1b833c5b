"""Command line surface.

Subcommands: compose (category products with diagnostics), check
(identities by structural criterion or substitution search), normalform
(word decompositions), idempotents (square idempotent listings) and
suite (the acceptance battery).

Exit codes: 0 success, 1 failing verdict or failing suite, 2 usage or
parse problems (including incomposable shapes), 3 invalid values caught
by validation, 141 (128 + SIGPIPE) when the reader closed stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import serialize
from .annular import build_ann_monoid, enumerate_affine
from .errors import DiagcatError, ParseError, ShapeMismatch, UnknownMonoid
from .identities import (
    IDENTITY_REGISTRY,
    MONOIDS,
    Identity,
    canonical_form,
    check_identity,
    extreme_rep,
    normal_form,
    parse_identity,
    parse_word,
)
from .partitions import enumerate_partitions, is_idempotent_structurally


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer literal over the int limit
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc


def _cmd_compose(args: argparse.Namespace) -> int:
    cat = serialize._row(args.category)
    if args.left == "-" and args.right == "-":
        raise ParseError("only one operand may come from stdin")
    x = cat.decode(_load_json(args.left))
    y = cat.decode(_load_json(args.right))
    product, diagnostics = cat.compose(x, y)
    out = {"category": cat.name, "product": cat.encode(product), **diagnostics}
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _resolve_identity(text: str) -> Identity:
    if text in IDENTITY_REGISTRY:
        return IDENTITY_REGISTRY[text]
    if "=" in text:
        return parse_identity(text)
    names = ", ".join(sorted(IDENTITY_REGISTRY))
    raise ParseError(
        f"{text!r} is neither a registered identity ({names}) nor an inline u=v"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise ParseError("--budget must be non-negative")
    identity = _resolve_identity(args.identity)
    if args.monoid not in MONOIDS:
        names = ", ".join(MONOIDS)
        raise UnknownMonoid(f"unknown monoid {args.monoid!r} (choose from {names})")
    monoid = MONOIDS[args.monoid]()
    if args.search:
        monoid = dataclasses.replace(monoid, decide=None)
    print(f"identity: {identity}")
    print(f"monoid: {args.monoid}")
    if monoid.decide is None:
        print(f"seed: {args.seed}")
    verdict = check_identity(identity, monoid, budget=args.budget, seed=args.seed)
    print(f"verdict: {verdict}")
    return 1 if verdict.status == "fails" else 0


def _cmd_normalform(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    starred = [sym for sym in w.letters if sym.endswith("*")]
    if starred:
        raise ParseError(
            f"normalform takes a plain word, but {args.word!r} has the starred letter {starred[0]}"
        )
    rep = extreme_rep(w)
    print(f"word: {w}")
    print(f"extreme word: {rep.e}")
    print(f"decomposition: {rep}")
    print(f"normal form: {normal_form(w)}")
    if args.canonical:
        print(f"canonical form: {canonical_form(w)}")
    return 0


# Per family: the JSON key of a value, its [n] ~> [n] values, and the
# extra fields of an idempotent.
_IDEMPOTENT_ROWS = {
    "P": (
        "partition",
        lambda n: enumerate_partitions(n, n),
        lambda e: {"components": [
            {"blocks": list(ix), "rank": rank} for ix, rank in is_idempotent_structurally(e)
        ]},
    ),
    "aTLe": ("diagram", lambda n: enumerate_affine(n, n, 2), lambda d: {"rank": d.rank}),
    "Ann": ("shadow", lambda n: build_ann_monoid(n).elements, lambda x: {"rank": x.rank}),
}


def _cmd_idempotents(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise ParseError("n must be non-negative")
    if args.category not in _IDEMPOTENT_ROWS:
        names = ", ".join(_IDEMPOTENT_ROWS)
        raise ParseError(f"unsupported category {args.category!r} (choose from {names})")
    key, values, extra = _IDEMPOTENT_ROWS[args.category]
    row = serialize.CATEGORIES[args.category]
    found = total = 0
    for x in values(n):
        total += 1
        if row.compose(x, x)[0] == x:
            found += 1
            print(json.dumps({key: row.encode(x), **extra(x)}, sort_keys=True))
    print(f"{found} idempotents among {total} elements", file=sys.stderr)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    # Imported here: the suite loads numpy, which no other command needs.
    from .suite import run_suite

    if not args.json:
        print(f"seed: {args.seed}")
    report = run_suite(seed=args.seed, filter=args.filter)
    if args.json:
        json.dump(report.to_json(), sys.stdout, indent=2)
        print()
    else:
        for res in report.results:
            print(res.line())
        print(
            f"{report.passed} passed, {report.failed} failed, "
            f"{report.skipped} skipped in {report.elapsed:.1f}s"
        )
    return 0 if report.ok() else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagcat",
        description="Diagram categories with genus bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two JSON values in a category")
    p.add_argument("category", help="one of " + ", ".join(serialize.CATEGORIES))
    p.add_argument("left", help="JSON file path, or - for stdin")
    p.add_argument("right", help="JSON file path, or - for stdin")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("check", help="test an identity in a monoid")
    p.add_argument("identity", help="registered name or inline u=v text")
    p.add_argument("monoid", help="one of " + ", ".join(MONOIDS))
    p.add_argument("--search", action="store_true",
                   help="search substitutions for a counterexample instead of "
                        "deciding by structural criterion (M and N)")
    p.add_argument("--budget", type=int, default=200_000,
                   help="substitution budget for the search")
    p.add_argument("--seed", type=int, default=0, help="search seed")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("normalform", help="decompose and sort a word")
    p.add_argument("word", help="word text such as x3yxytz4xyz")
    p.add_argument("--canonical", action="store_true",
                   help="also print the parity canonical form")
    p.set_defaults(fn=_cmd_normalform)

    p = sub.add_parser("idempotents", help="list square idempotents")
    p.add_argument("n", type=int, help="number of points per side")
    p.add_argument("category", help="P, aTLe or Ann")
    p.set_defaults(fn=_cmd_idempotents)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--filter", default=None,
                   help="only run checks whose id contains this substring")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--seed", type=int, default=0, help="suite seed")
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return status
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, UnknownMonoid, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiagcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
