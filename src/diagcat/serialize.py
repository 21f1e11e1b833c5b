"""JSON encoding/decoding for every diagram family plus the category table.

Schemas:
* partition arrows: {"m", "n", "blocks": [[{"side", "index"}, ...], ...]}
* affine arrows: {"m", "n", "partners": [{"from": {"side", "index"},
  "to": {"offset", "side", "index"}}, ...]}
* decorated variants add flat fields: "shift", "genus" (keyed by the least
  vertex of each block), "spectrum" (genus -> count), "k", "k0", "regular".

Every number must be a JSON integer and "regular" a JSON boolean; anything
else raises ParseError.  A missing "regular" means non-regular, except in
Pd-bar, Cob0-bar and Cob-bar, which are regular by name.  In these three
and in Pd, Cob0 and Cob, a "regular" that contradicts the name is an error.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from . import annular, cobordisms
from .errors import NegativeLabel, ParseError
from .partitions import IN, OUT, Partition, Vertex, compose, make_partition
from .cobordisms import (
    Cobordism,
    DeformedPartition,
    LabeledPartition,
    Spectrum,
    make_cobordism,
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
    make_pair,
    make_triple,
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
_VKEY = re.compile(r"(in|out)(\d+)")


def _vertex_json(v: Vertex) -> dict:
    return {"side": _SIDE_NAME[v.side], "index": v.index}


def _int(value, what: str) -> int:
    """A JSON integer; a boolean, float, string or null raises ParseError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def _regular(d: dict, fixed: bool | None = None) -> bool:
    """The "regular" field, a JSON boolean.  A category that fixes it by
    name passes that value as fixed: it is then the default, and any other
    value is an error."""
    value = d.get("regular", bool(fixed))
    if not isinstance(value, bool):
        raise ParseError(f"regular must be a boolean, not {value!r}")
    if fixed is not None and value != fixed:
        raise ParseError(f"regular is {value} in a category where it is {fixed}")
    return value


def _vertex_from_json(d: dict) -> tuple[int, int]:
    """A vertex object as a (side, index) pair."""
    try:
        side = {"in": IN, "out": OUT}[d["side"]]
        index = d["index"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad vertex object {d!r}") from exc
    return side, _int(index, "vertex index")


def _vertex_key(v: Vertex) -> str:
    return f"{_SIDE_NAME[v.side]}{v.index}"


def _vertex_from_key(key: str) -> Vertex:
    m = _VKEY.fullmatch(key)
    if not m:
        raise ParseError(f"bad vertex key {key!r}")
    return Vertex(IN if m.group(1) == "in" else OUT, int(m.group(2)))


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
    try:
        return Spectrum({int(g): _int(c, "spectrum count") for g, c in d.items()})
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad spectrum object {d!r}") from exc


def _genus_to_json(base: Partition, genus) -> dict:
    return {
        _vertex_key(block[0]): g for block, g in zip(base.blocks, genus)
    }


def _genus_from_json(base: Partition, d: dict):
    lookup = {}
    for key, g in d.items():
        lookup[_vertex_from_key(key)] = _int(g, "genus")
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
    slots = [(IN, i) for i in range(1, a.m + 1)]
    slots += [(OUT, j) for j in range(1, a.n + 1)]
    for (side, index), q in zip(slots, a.partner):
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
        table = {}
        for entry in d["partners"]:
            src = entry["from"]
            dst = entry["to"]
            table[(src["side"], _int(src["index"], "index"))] = (
                _int(dst["offset"], "offset"),
                dst["side"],
                _int(dst["index"], "index"),
            )
        return make_affine(_int(d["m"], "m"), _int(d["n"], "n"), table)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad affine object: {exc}") from exc


# -- per-category plumbing ---------------------------------------------------

class Category(NamedTuple):
    name: str
    decode: Callable
    encode: Callable
    compose: Callable  # (x, y) -> (product, diagnostics dict)


def _dec_deformed(regular):
    def dec(d):
        p = partition_from_json(d)
        shift = _int(d.get("shift", 0), "shift")
        _regular(d, regular)
        if not regular and shift < 0:
            raise NegativeLabel("negative shift in non-regular value")
        return DeformedPartition(p, shift, regular)

    return dec


def _enc_deformed(x: DeformedPartition) -> dict:
    return {**partition_to_json(x.base), "shift": x.s, "regular": x.regular}


def _dec_labeled(regular):
    def dec(d):
        p = partition_from_json(d)
        genus = _genus_from_json(p, d.get("genus", {}))
        cob = make_cobordism(p, genus, (), _regular(d, regular))
        return LabeledPartition(cob.base, cob.genus, regular)

    return dec


def _enc_labeled(x: LabeledPartition) -> dict:
    return {
        **partition_to_json(x.base),
        "genus": _genus_to_json(x.base, x.genus),
        "regular": x.regular,
    }


def _dec_cobordism(regular):
    def dec(d):
        p = partition_from_json(d)
        genus = _genus_from_json(p, d.get("genus", {}))
        spectrum = spectrum_from_json(d.get("spectrum", {}))
        return make_cobordism(p, genus, spectrum, _regular(d, regular))

    return dec


def _enc_cobordism(x: Cobordism) -> dict:
    return {**_enc_labeled(x), "spectrum": spectrum_to_json(x.spectrum)}


def _dec_pair(d):
    return make_pair(affine_from_json(d), _int(d.get("k", 0), "k"), _regular(d))


def _enc_pair(x: AffinePair) -> dict:
    return {**affine_to_json(x.skeleton), "k": x.k, "regular": x.regular}


def _dec_triple(d):
    return make_triple(
        affine_from_json(d),
        _int(d.get("k", 0), "k"),
        _int(d.get("k0", 0), "k0"),
        _regular(d),
    )


def _enc_triple(x: AffineTriple) -> dict:
    return {
        **affine_to_json(x.skeleton),
        "k": x.k,
        "k0": x.k0,
        "regular": x.regular,
    }


def _dec_ann(d):
    return AnnularPartition(partition_from_json(d))


def _enc_ann(x: AnnularPartition) -> dict:
    return {**partition_to_json(x.base), "annular": True}


def _dec_deformed_ann(d):
    return DeformedAnnular(_dec_ann(d), _int(d.get("k", 0), "k"), _regular(d))


def _enc_deformed_ann(x: DeformedAnnular) -> dict:
    return {**_enc_ann(x.base), "k": x.k, "regular": x.regular}


def _undecorated(compose_base):
    """P and aTLe: the product is the base composition's own."""

    def traced(x, y):
        res = compose_base(x, y)
        return res.product, res

    return traced


def _dead_blocks(traced):
    """The table composer of a family over partition bases: its product
    and the dead blocks of the one base composition it was built from."""

    def compose_(x, y):
        product, res = traced(x, y)
        return product, {"dead_blocks": res.b}

    return compose_


def _circles(traced):
    """The table composer of a family over affine skeletons: its product
    and the circles closed by the one base composition it was built from."""

    def compose_(x, y):
        product, res = traced(x, y)
        return product, {"b0": res.b0, "bw": res.bw}

    return compose_


_compose_p = _dead_blocks(_undecorated(compose))
_compose_decorated = _dead_blocks(cobordisms.compose_decorated)
_compose_affine = _circles(_undecorated(compose_affine))
_compose_counted = _circles(annular.compose_decorated)
_compose_ann = _dead_blocks(compose_ann)
_compose_dann = _dead_blocks(annular.compose_decorated)

CATEGORIES: dict[str, Category] = {
    "P": Category("P", partition_from_json, partition_to_json, _compose_p),
    "Pd": Category("Pd", _dec_deformed(False), _enc_deformed, _compose_decorated),
    "Pd-bar": Category("Pd-bar", _dec_deformed(True), _enc_deformed, _compose_decorated),
    "Cob0": Category("Cob0", _dec_labeled(False), _enc_labeled, _compose_decorated),
    "Cob0-bar": Category("Cob0-bar", _dec_labeled(True), _enc_labeled, _compose_decorated),
    "Cob": Category("Cob", _dec_cobordism(False), _enc_cobordism, _compose_decorated),
    "Cob-bar": Category("Cob-bar", _dec_cobordism(True), _enc_cobordism, _compose_decorated),
    "aTLe": Category("aTLe", affine_from_json, affine_to_json, _compose_affine),
    "aTL": Category("aTL", _dec_pair, _enc_pair, _compose_counted),
    "aTLd": Category("aTLd", _dec_triple, _enc_triple, _compose_counted),
    "Ann": Category("Ann", _dec_ann, _enc_ann, _compose_ann),
    "Annd": Category("Annd", _dec_deformed_ann, _enc_deformed_ann, _compose_dann),
}


def encode(category: str, value) -> dict:
    return CATEGORIES[category].encode(value)


def decode(category: str, obj: dict):
    if category not in CATEGORIES:
        raise ParseError(f"unknown category {category!r}")
    return CATEGORIES[category].decode(obj)
