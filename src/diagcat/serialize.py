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
families only through it: adding a family is one row plus its codec.  X
holds non-regular values and X-bar regular ones; P, aTLe and Ann are
regular (their star is total); aTL, aTLd and Annd take both.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, NamedTuple

from . import annular, cobordisms, sampling
from .errors import NegativeLabel, ParseError
from .partitions import IN, OUT, Partition, Vertex, _ground, compose, make_partition, reflect
from .cobordisms import (
    Cobordism,
    DeformedPartition,
    LabeledPartition,
    Spectrum,
    make_cobordism,
    to_labeled,
)
from .annular import (
    AffineDiagram,
    AffinePair,
    AffineTriple,
    AnnularPartition,
    DeformedAnnular,
    compose_affine,
    compose_ann,
    make_affine,
    make_ann,
    make_pair,
    make_triple,
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
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def _object(value, what: str) -> dict:
    """A JSON object; an array, string, number or null raises ParseError."""
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, not {value!r}")
    return value


def _key(pattern: re.Pattern, key, what: str) -> tuple[re.Match, int]:
    """The match of a canonical ASCII key and its number, or ParseError."""
    m = pattern.fullmatch(key) if isinstance(key, str) else None
    try:
        return m, int(m["number"])
    except (TypeError, ValueError) as exc:  # no match, or too long for int()
        raise ParseError(f"bad {what} key {key!r}") from exc


def _vertex_from_json(d: dict) -> tuple[int, int]:
    """A vertex object as a (side, index) pair."""
    try:
        side = _SIDE[d["side"]]
        index = d["index"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad vertex object {d!r}") from exc
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
    partners = []
    for (side, index), q in zip(_ground(a.m, a.n), a.partner):
        partners.append(
            {
                "from": {"side": _SIDE_NAME[side], "index": index},
                "to": {
                    "offset": q.offset,
                    "side": _SIDE_NAME[q.side],
                    "index": q.index,
                },
            }
        )
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
    square: bool  # every value is [n] ~> [n]
    sample: Callable  # (rng, m, n, regular) -> random value [m] ~> [n]
    sigma: Callable  # reflection, an involutive anti-automorphism
    rho: Callable  # half-turn, an involutive anti-automorphism
    star: Callable  # x x* x == x, x* x x* == x*; NotRegular on non-regular values
    quotients: Mapping[str, Callable]  # target name -> homomorphism commuting with sigma, rho

    def decode(self, obj):
        """The value that the JSON object obj encodes."""
        regular = _object(obj, f"{self.name} value").get("regular", self.regularities[0])
        if not isinstance(regular, bool) or regular not in self.regularities:
            raise ParseError(f"{self.name} takes regular in {self.regularities}, not {regular!r}")
        return self.read(obj, regular)


def _read_deformed(d: dict, regular: bool) -> DeformedPartition:
    p = partition_from_json(d)
    shift = _int(d.get("shift", 0), "shift")
    if not regular and shift < 0:
        raise NegativeLabel("negative shift in non-regular value")
    return DeformedPartition(p, shift, regular)


def _enc_deformed(x: DeformedPartition) -> dict:
    return {**partition_to_json(x.base), "shift": x.s, "regular": x.regular}


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


def _read_pair(d: dict, regular: bool) -> AffinePair:
    return make_pair(affine_from_json(d), _int(d.get("k", 0), "k"), regular)


def _enc_pair(x: AffinePair) -> dict:
    return {**affine_to_json(x.skeleton), "k": x.k, "regular": x.regular}


def _read_triple(d: dict, regular: bool) -> AffineTriple:
    k, k0 = _int(d.get("k", 0), "k"), _int(d.get("k0", 0), "k0")
    return make_triple(affine_from_json(d), k, k0, regular)


def _enc_triple(x: AffineTriple) -> dict:
    return {
        **affine_to_json(x.skeleton),
        "k": x.k,
        "k0": x.k0,
        "regular": x.regular,
    }


def _enc_ann(x: AnnularPartition) -> dict:
    return {**partition_to_json(x.base), "annular": True}


def _read_deformed_ann(d: dict, regular: bool) -> DeformedAnnular:
    shadow = make_ann(partition_from_json(d))
    k = _int(d.get("k", 0), "k")
    if not regular and k < 0:
        raise NegativeLabel("negative circle count in non-regular value")
    return DeformedAnnular(shadow, k, regular)


def _enc_deformed_ann(x: DeformedAnnular) -> dict:
    return {**_enc_ann(x.base), "k": x.k, "regular": x.regular}


def _sample_deformed_shadow(rng, m, n, regular) -> DeformedAnnular:
    shadow = project_to_ann(sampling.random_affine(rng, m))
    return DeformedAnnular(shadow, rng.randint(-3 if regular else 0, 3), regular)


def _undecorated(compose_base):
    """P and aTLe: the product is the base composition's own."""
    return lambda x, y: ((res := compose_base(x, y)).product, res)


def _table_compose(traced, diagnostics):
    """The table composer: the product of traced and the diagnostics read
    off the one base composition it was built from."""

    def compose_(x, y):
        product, res = traced(x, y)
        return product, diagnostics(res)

    return compose_


def _dead_blocks(res) -> dict:
    return {"dead_blocks": res.b}


def _circles(res) -> dict:
    return {"b0": res.b0, "bw": res.bw}


def _partition_rows(name, read, encode, sample, star, quotients):
    """Rows X (non-regular values) and X-bar (regular ones) of a decorated
    family over partitions; a quotient to Y gives X -> Y and X-bar -> Y-bar."""
    compose_ = _table_compose(cobordisms.compose_decorated, _dead_blocks)
    return {
        name + bar: Category(
            name + bar, read, encode, compose_, (regular,), False, sample,
            cobordisms.sigma, cobordisms.rho, star, {y + bar: q for y, q in quotients.items()},
        )
        for bar, regular in (("", False), ("-bar", True))
    }


CATEGORIES: dict[str, Category] = {
    "P": Category(
        "P", lambda d, regular: partition_from_json(d), partition_to_json,
        _table_compose(_undecorated(compose), _dead_blocks), (True,), False,
        lambda rng, m, n, regular: sampling.random_partition(rng, m, n),
        cobordisms.sigma, cobordisms.rho, reflect, {},
    ),
    **_partition_rows(
        "Pd", _read_deformed, _enc_deformed,
        lambda rng, m, n, regular: sampling.random_deformed(rng, m, n, regular=regular),
        cobordisms.star_deformed, {},
    ),
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
        cobordisms.star_cobordism, {"Cob0": to_labeled, "Pd": cobordisms.to_deformed},
    ),
    "aTLe": Category(
        "aTLe", lambda d, regular: affine_from_json(d), affine_to_json,
        _table_compose(_undecorated(compose_affine), _circles), (True,), True,
        lambda rng, m, n, regular: sampling.random_affine(rng, m),
        annular.sigma_affine, annular.rho_affine, annular.sigma_affine, {"Ann": project_to_ann},
    ),
    "aTL": Category(
        "aTL", _read_pair, _enc_pair, _table_compose(annular.compose_decorated, _circles),
        (False, True), True,
        lambda rng, m, n, regular: sampling.random_pair(rng, m, regular=regular),
        annular.sigma_affine, annular.rho_affine, annular.star_decorated, {},
    ),
    "aTLd": Category(
        "aTLd", _read_triple, _enc_triple, _table_compose(annular.compose_decorated, _circles),
        (False, True), True,
        lambda rng, m, n, regular: sampling.random_triple(rng, m, regular=regular),
        annular.sigma_affine, annular.rho_affine, annular.star_decorated, {},
    ),
    "Ann": Category(
        "Ann", lambda d, regular: make_ann(partition_from_json(d)), _enc_ann,
        _table_compose(compose_ann, _dead_blocks), (True,), True,
        lambda rng, m, n, regular: project_to_ann(sampling.random_affine(rng, m)),
        annular.sigma_affine, annular.rho_affine, annular.sigma_affine, {},
    ),
    "Annd": Category(
        "Annd", _read_deformed_ann, _enc_deformed_ann,
        _table_compose(annular.compose_decorated, _dead_blocks), (False, True), True,
        _sample_deformed_shadow,
        annular.sigma_affine, annular.rho_affine, annular.star_decorated, {},
    ),
}


def encode(category: str, value) -> dict:
    return CATEGORIES[category].encode(value)


def decode(category: str, obj: dict):
    if category not in CATEGORIES:
        raise ParseError(f"unknown category {category!r}")
    return CATEGORIES[category].decode(obj)
