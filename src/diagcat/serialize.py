"""JSON encoding/decoding for every diagram family plus the category table.

Schemas:
* partition arrows: {"m", "n", "blocks": [[{"side", "index"}, ...], ...]}
* affine arrows: {"m", "n", "partners": [{"from": {"side", "index"},
  "to": {"offset", "side", "index"}}, ...]}
* decorated variants add flat fields: "shift", "genus" (keyed by the least
  vertex of each block), "spectrum" (genus -> count), "k", "k0", "regular".

Every number must be a JSON integer, every side "in" or "out", "regular" a
JSON boolean, and "genus" and "spectrum" JSON objects with canonical ASCII
keys: "in<i>"/"out<i>" with no leading zeros, and genera in shortest
decimal form ("0", "3", "-2").  Anything else raises ParseError.  An Ann
or Annd base must be the shadow of an affine diagram (see
annular.make_ann), else UnmatchedPoint or CrossingError.

CATEGORIES holds one Category row per category, and the CLI, the benchmark,
the acceptance suite's sampled law checks and the law tests know the
families only through it: adding a family is one row plus its codec.
The row alone chooses the map for its values, so each sigma, rho and
star it holds takes one value type.  X
holds non-regular values and X-bar regular ones; P, aTLe and Ann are
regular (their star is total); aTL, aTLd and Annd take both.

The counter rows Pd, Pd-bar, aTL, aTLd and Annd hold Deformed values: a
value of a base row (P, aTLe or Ann) plus integer counters, each fed by
one diagnostic of the base composition.  One builder derives each of
them from its base row and its (field, diagnostic) pairs.  Bases recur
under many labels and counters, so every row composes small bases through
a bounded memo (partitions.bounded_memo): the base and counter rows
through their kernel's, the labeled rows through the merge plans of
cobordisms.compose_decorated.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, NamedTuple

from . import annular, cobordisms, sampling
from .errors import (
    NegativeLabel,
    NotRegular,
    ParseError,
    RangeError,
    RegularityMismatch,
    _shown,
)
from .partitions import (
    IN,
    OUT,
    Partition,
    Vertex,
    _ground,
    bounded_memo,
    compose,
    make_partition,
    reflect,
    rotate,
)
from .cobordisms import Cobordism, LabeledPartition, Spectrum, make_cobordism, to_labeled
from .annular import (
    AffineDiagram,
    AnnularPartition,
    compose_affine,
    make_affine,
    make_ann,
    project_to_ann,
)

__all__ = [
    "partition_to_json",
    "partition_from_json",
    "affine_to_json",
    "affine_from_json",
    "spectrum_to_json",
    "spectrum_from_json",
    "encode",
    "decode",
    "CATEGORIES",
    "Category",
    "Deformed",
]

_SIDE_NAME = {IN: "in", OUT: "out"}
_SIDE = {"in": IN, "out": OUT}
_VKEY = re.compile(r"(?P<side>in|out)(?P<number>[1-9][0-9]*)")
_GKEY = re.compile(r"(?P<number>0|-?[1-9][0-9]*)")


def _vertex_json(v: Vertex) -> dict:
    return {"side": _SIDE_NAME[v.side], "index": v.index}


def _int(value, what: str) -> int:
    """A JSON integer; a boolean, float, string or null raises ParseError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, not {_shown(value)}")
    return value


def _object(value, what: str) -> dict:
    """A JSON object; an array, string, number or null raises ParseError."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, not {_shown(value)}")
    return value


def _key(pattern: re.Pattern, key, what: str) -> tuple[re.Match, int]:
    """The match of a canonical ASCII key and its number, or ParseError."""
    m = pattern.fullmatch(key) if isinstance(key, str) else None
    try:
        return m, int(m["number"])
    except (TypeError, ValueError) as exc:  # no match, or too long for int()
        raise ParseError(f"bad {what} key {_shown(key)}") from exc


def _vertex_from_json(d: dict) -> tuple[int, int]:
    """A vertex object as a (side, index) pair."""
    try:
        side = _SIDE[d["side"]]
        index = d["index"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad vertex object {_shown(d)}") from exc
    return side, _int(index, "vertex index")


def _vertex_key(v: Vertex) -> str:
    return f"{_SIDE_NAME[v.side]}{v.index}"


def partition_to_json(p: Partition) -> dict:
    return {
        "m": p.m,
        "n": p.n,
        "blocks": [[_vertex_json(v) for v in block] for block in p.blocks],
    }


def partition_from_json(d: dict) -> Partition:
    try:
        blocks = [[_vertex_from_json(v) for v in block] for block in d["blocks"]]
        return make_partition(_int(d["m"], "m"), _int(d["n"], "n"), blocks)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad partition object: {exc}") from exc


def spectrum_to_json(s: Spectrum) -> dict:
    return {str(g): c for g, c in s.pairs}


def spectrum_from_json(d: dict) -> Spectrum:
    items = _object(d, "spectrum").items()
    return Spectrum({_key(_GKEY, g, "spectrum")[1]: _int(c, "spectrum count") for g, c in items})


def _genus_to_json(base: Partition, genus) -> dict:
    return {
        _vertex_key(block[0]): g for block, g in zip(base.blocks, genus)
    }


def _genus_from_json(base: Partition, d: dict):
    lookup = {}
    for key, g in _object(d, "genus").items():
        m, index = _key(_VKEY, key, "genus")
        lookup[Vertex(_SIDE[m["side"]], index)] = _int(g, "genus")
    out = []
    for block in base.blocks:
        anchor = block[0]
        if anchor not in lookup:
            raise ParseError(f"no genus for block anchored at {anchor!r}")
        out.append(lookup.pop(anchor))
    if lookup:
        raise ParseError(f"genus for unknown anchors: {sorted(map(repr, lookup))}")
    return tuple(out)


def affine_to_json(a: AffineDiagram) -> dict:
    g = _ground(a.m, a.n)
    partners = [
        {
            "from": {"side": _SIDE_NAME[v.side], "index": v.index},
            "to": {"offset": t, "side": _SIDE_NAME[g[p].side], "index": g[p].index},
        }
        for v, p, t in zip(g, a.partner, a.offset)
    ]
    return {"m": a.m, "n": a.n, "partners": partners}


def affine_from_json(d: dict) -> AffineDiagram:
    try:
        partners = [
            (
                _vertex_from_json(entry["from"]),
                (_int(entry["to"]["offset"], "offset"), *_vertex_from_json(entry["to"])),
            )
            for entry in d["partners"]
        ]
        m, n = _int(d["m"], "m"), _int(d["n"], "n")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad affine object: {exc}") from exc
    return make_affine(m, n, partners)


# -- the category table ------------------------------------------------------

class Category(NamedTuple):
    """One row of the category table."""

    name: str
    read: Callable  # (JSON object, its regular flag) -> value
    encode: Callable  # value -> JSON object
    compose: Callable  # (x, y) -> (product, dead blocks or circles b0/bw made)
    regularities: tuple[bool, ...]  # flags its values take; a missing one means the first
    square: bool  # sample draws only [n] ~> [n]; decode and compose take any shape
    sample: Callable  # (rng, m, n, regular) -> random value [m] ~> [n]
    sigma: Callable  # reflection, an involutive anti-automorphism
    rho: Callable  # half-turn, an involutive anti-automorphism
    star: Callable  # x x* x == x, x* x x* == x*; NotRegular on non-regular values
    quotients: Mapping[str, Callable]  # target name -> homomorphism commuting with sigma, rho

    def decode(self, obj):
        """The value that the JSON object obj encodes."""
        regular = _object(obj, f"{self.name} value").get("regular", self.regularities[0])
        if not isinstance(regular, bool) or regular not in self.regularities:
            raise ParseError(
                f"{self.name} takes regular in {self.regularities}, not {_shown(regular)}"
            )
        return self.read(obj, regular)


def _read_cobordism(d: dict, regular: bool) -> Cobordism:
    p = partition_from_json(d)
    genus = _genus_from_json(p, d.get("genus", {}))
    return make_cobordism(p, genus, spectrum_from_json(d.get("spectrum", {})), regular)


def _read_labeled(d: dict, regular: bool) -> LabeledPartition:
    """A cobordism with an empty spectrum; a "spectrum" field is ignored."""
    return to_labeled(_read_cobordism({**d, "spectrum": {}}, regular))


def _enc_labeled(x: LabeledPartition) -> dict:
    return {
        **partition_to_json(x.base),
        "genus": _genus_to_json(x.base, x.genus),
        "regular": x.regular,
    }


def _enc_cobordism(x: Cobordism) -> dict:
    return {**_enc_labeled(x), "spectrum": spectrum_to_json(x.spectrum)}


def _enc_ann(x: AnnularPartition) -> dict:
    return {**partition_to_json(x.base), "annular": True}


_compose_partitions = bounded_memo(compose)
_compose_affine = bounded_memo(compose_affine)


def _compose_p(x: Partition, y: Partition):
    res = _compose_partitions(x, y)
    return res.product, {"dead_blocks": res.b}


def _compose_atle(x: AffineDiagram, y: AffineDiagram):
    res = _compose_affine(x, y)
    return res.product, {"b0": res.b0, "bw": res.bw}


def _compose_ann(x: AnnularPartition, y: AnnularPartition):
    """The shadow of the composition of the bases."""
    res = _compose_partitions(x.base, y.base)
    return AnnularPartition(res.product), {"dead_blocks": res.b}


def _compose_labeled(x, y):
    product, res = cobordisms.compose_decorated(x, y)
    return product, {"dead_blocks": res.b}


def _partition_rows(name, read, encode, sample, star, quotients):
    """Rows X (non-regular values) and X-bar (regular ones) of a labeled
    family over partitions; a quotient to Y gives X -> Y and X-bar -> Y-bar."""
    return {
        name + bar: Category(
            name + bar, read, encode, _compose_labeled, (regular,), False, sample,
            cobordisms.sigma, cobordisms.rho, star, {y + bar: q for y, q in quotients.items()},
        )
        for bar, regular in (("", False), ("-bar", True))
    }


class Deformed(NamedTuple):
    """A value of a counter row: a value of the base row and one integer
    per counter."""

    base: object
    counts: tuple[int, ...]
    regular: bool = False


def _deformed_row(name, base, counters, regularities=(False, True)) -> Category:
    """The row of base values with counters: counters pairs each counter's
    JSON field with the diagnostic of base.compose that feeds it.

    A product's counter is the sum of the operands' plus that diagnostic;
    the star is the base star with each counter c turned into
    -c - D(x, x*) - D(x*, x), D being the counter's diagnostic; sigma and
    rho act on the base.  A non-regular value's counters are non-negative
    (else NegativeLabel), and a counter fed by wrapping circles (bw) is 0
    alongside a transversal string (else RangeError).  Samples draw each
    counter from -3..3 (regular) or 0..3.
    """
    fields = tuple(field for field, _ in counters)
    feeds = tuple(feed for _, feed in counters)

    def read(d: dict, regular: bool) -> Deformed:
        x = base.read(d, True)
        counts = tuple([_int(d.get(field, 0), field) for field in fields])
        for field, feed, c in zip(fields, feeds, counts):
            if feed == "bw" and c and x.rank > 0:
                raise RangeError(f"{field} must be 0 alongside a transversal string")
            if not regular and c < 0:
                raise NegativeLabel(f"negative {field} in non-regular value")
        return Deformed(x, counts, regular)

    def encode(x: Deformed) -> dict:
        return {**base.encode(x.base), **dict(zip(fields, x.counts)), "regular": x.regular}

    def compose_(x: Deformed, y: Deformed):
        if x.regular != y.regular:
            raise RegularityMismatch("cannot mix regular and non-regular values")
        product, diag = base.compose(x.base, y.base)
        counts = tuple([a + b + diag[feed] for a, b, feed in zip(x.counts, y.counts, feeds)])
        return Deformed(product, counts, x.regular), diag

    def star(x: Deformed) -> Deformed:
        if not x.regular:
            raise NotRegular("star needs a regular value")
        image = base.star(x.base)
        fwd, bwd = base.compose(x.base, image)[1], base.compose(image, x.base)[1]
        counts = tuple([-c - fwd[f] - bwd[f] for c, f in zip(x.counts, feeds)])
        return Deformed(image, counts, True)

    def sample(rng, m, n, regular) -> Deformed:
        x = base.sample(rng, m, n, regular)
        lo = -3 if regular else 0
        bits = rng.getrandbits
        counts = tuple([
            0 if feed == "bw" and x.rank > 0 else lo + sampling._below(bits, 4 - lo)
            for feed in feeds
        ])
        return Deformed(x, counts, regular)

    return Category(
        name, read, encode, compose_, regularities, base.square, sample,
        lambda x: Deformed(base.sigma(x.base), x.counts, x.regular),
        lambda x: Deformed(base.rho(x.base), x.counts, x.regular),
        star, {},
    )


def _reflect_ann(x: AnnularPartition) -> AnnularPartition:
    """Ann's sigma and star: the shadow of the reflection."""
    return AnnularPartition(reflect(x.base))


_P = Category(
    "P", lambda d, regular: partition_from_json(d), partition_to_json,
    _compose_p, (True,), False,
    lambda rng, m, n, regular: sampling.random_partition(rng, m, n),
    reflect, rotate, reflect, {},
)
_ATLE = Category(
    "aTLe", lambda d, regular: affine_from_json(d), affine_to_json,
    _compose_atle, (True,), True,
    lambda rng, m, n, regular: sampling.random_affine(rng, m),
    annular.sigma_affine, annular.rho_affine, annular.sigma_affine, {"Ann": project_to_ann},
)
_ANN = Category(
    "Ann", lambda d, regular: make_ann(partition_from_json(d)), _enc_ann,
    _compose_ann, (True,), True,
    lambda rng, m, n, regular: project_to_ann(sampling.random_affine(rng, m)),
    _reflect_ann, lambda x: AnnularPartition(rotate(x.base)), _reflect_ann, {},
)
_SHIFT = (("shift", "dead_blocks"),)

CATEGORIES: dict[str, Category] = {
    "P": _P,
    "Pd": _deformed_row("Pd", _P, _SHIFT, (False,)),
    "Pd-bar": _deformed_row("Pd-bar", _P, _SHIFT, (True,)),
    **_partition_rows(
        "Cob0", _read_labeled, _enc_labeled,
        lambda rng, m, n, regular: to_labeled(
            sampling.random_cobordism(rng, m, n, regular=regular)
        ),
        cobordisms.star_labeled, {},
    ),
    **_partition_rows(
        "Cob", _read_cobordism, _enc_cobordism,
        lambda rng, m, n, regular: sampling.random_cobordism(rng, m, n, regular=regular),
        cobordisms.star_cobordism,
        # forget the labels, keep the total closed-component count
        {"Cob0": to_labeled, "Pd": lambda x: Deformed(x.base, (x.spectrum.total(),), x.regular)},
    ),
    "aTLe": _ATLE,
    "aTL": _deformed_row("aTL", _ATLE, (("k", "bw"),)),
    "aTLd": _deformed_row("aTLd", _ATLE, (("k", "bw"), ("k0", "b0"))),
    "Ann": _ANN,
    "Annd": _deformed_row("Annd", _ANN, (("k", "dead_blocks"),)),
}


def _row(category: str) -> Category:
    if category not in CATEGORIES:
        names = ", ".join(CATEGORIES)
        raise ParseError(f"unknown category {_shown(category)} (choose from {names})")
    return CATEGORIES[category]


def encode(category: str, value) -> dict:
    return _row(category).encode(value)


def decode(category: str, obj: dict):
    return _row(category).decode(obj)
