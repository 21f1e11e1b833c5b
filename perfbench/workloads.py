"""The four benchmark workloads.

Each workload is built from a seed in ``setup`` (input generation plus a
warm-up, outside every timed region) and measured in ``run``, which times
only the calls into diagcat's public modules and checks every output.
A workload reports one ``PassResult``; the worker turns it into JSON.

Operations that raise, or whose output disagrees with the checks, count
as failed operations and never stop the pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import traceback
from array import array
from dataclasses import dataclass, field

import diagcat
from diagcat import annular, auxmonoids, identities, partitions, serialize, suite

# -- shared plumbing --------------------------------------------------------

CATEGORY_LAYER = {
    "P": "partitions",
    "Pd": "cobordisms",
    "Pd-bar": "cobordisms",
    "Cob0": "cobordisms",
    "Cob0-bar": "cobordisms",
    "Cob": "cobordisms",
    "Cob-bar": "cobordisms",
    "aTLe": "annular",
    "aTL": "annular",
    "aTLd": "annular",
    "Ann": "annular",
    "Annd": "annular",
}
WIDTHS = (2, 4, 8, 16, 32)

# Span name prefix -> (metric suffix unit, scale from seconds).
SPAN_UNITS = {
    "partitions.compose": ("us", 1e6),
    "partitions.hom_table": ("s", 1.0),
    "cobordisms.compose": ("us", 1e6),
    "annular.compose": ("us", 1e6),
    "annular.build_ann_monoid": ("s", 1.0),
    "annular.enumerate_affine": ("s", 1.0),
    "auxmonoids.finite_monoid": ("s", 1.0),
    "auxmonoids.mul": ("us", 1e6),
    "identities.parse_word": ("us", 1e6),
    "identities.normal_form": ("us", 1e6),
    "identities.sort_to_normal": ("us", 1e6),
    "identities.canonical_form": ("ms", 1e3),
    "identities.holds_in_M": ("us", 1e6),
    "identities.holds_in_N": ("us", 1e6),
    "identities.check_identity": ("s", 1.0),
    "serialize.decode": ("us", 1e6),
    "serialize.encode": ("us", 1e6),
    "suite.run_suite": ("s", 1.0),
}


# Spans reported as one total per pass rather than one value per call.
PER_PASS_TOTAL = {"identities.check_identity", "suite.run_suite"}


def span_metric(name: str):
    """Map a span name such as ``annular.compose.n8`` to its metric name
    (``annular.compose_us.n8``), the scale from seconds, and whether the
    metric is a per-pass total."""
    layer, call, *bucket = name.split(".")
    unit, scale = SPAN_UNITS[f"{layer}.{call}"]
    metric = ".".join([f"{layer}.{call}_{unit}", *bucket])
    return metric, scale, f"{layer}.{call}" in PER_PASS_TOTAL


@dataclass
class PassResult:
    # Raw clock() readings; the worker converts them to reference seconds.
    walls: list = field(default_factory=list)  # (start, end) of timed stretches
    latencies: array = field(default_factory=lambda: array("d"))  # start, end, start, ...
    attempted: int = 0
    failed: int = 0
    searches: int = 0
    undecided: int = 0
    counts: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # metric name -> values
    errors: list = field(default_factory=list)

    def fail(self, what: str, exc: BaseException | None = None) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            detail = "" if exc is None else ": " + "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            self.errors.append(what + detail)

    def add_sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _canonical(value):
    """A JSON-able form of a monoid element that is the same in every
    process: dataclass fields in order, with eq=False dataclasses (such
    as the ideal-extension instances, which hold functions) by name."""
    if dataclasses.is_dataclass(value):
        if not value.__dataclass_params__.eq:
            return [type(value).__name__, getattr(value, "name", "")]
        return [type(value).__name__] + [
            _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, (tuple, list, frozenset)):
        items = [_canonical(v) for v in value]
        return sorted(items, key=repr) if isinstance(value, frozenset) else items
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return [type(value).__name__, repr(value)]


def _key(obj) -> int:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _verdict_matches(status: str, reference: str | None) -> bool:
    """A decided verdict must equal the stored one; a stored ``unknown``
    may become decided, and a run may stay undecided only where the
    stored verdict is undecided too."""
    if reference is None:
        return True
    return status == reference or reference == "unknown"


def _stored_verdicts(ref: dict, budget: int) -> dict:
    """Stored verdicts, which hold only for the budget they were made at."""
    return ref.get("verdicts", {}) if ref.get("budget") == budget else {}


def _check_witness(ident, monoid, verdict) -> bool:
    """Re-evaluate a ``fails`` witness; other verdicts pass through."""
    if verdict.status != "fails":
        return True
    lhs = identities.evaluate(ident.lhs, verdict.witness, monoid)
    rhs = identities.evaluate(ident.rhs, verdict.witness, monoid)
    return lhs != rhs


def registry_checks(monoid):
    """Registry identities that the monoid can evaluate: involutory ones
    only where it has a star."""
    return [
        (name, ident)
        for name, ident in identities.IDENTITY_REGISTRY.items()
        if monoid.star is not None or not ident.involutory
    ]


# -- compose-stream ---------------------------------------------------------

def _least(block):
    return min(block, key=lambda v: (v[0] != "in", v[1]))


def _partition_json(rng: random.Random, w: int):
    blocks: list[list] = []
    for point in [("in", i) for i in range(1, w + 1)] + [("out", j) for j in range(1, w + 1)]:
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([point])
        else:
            blocks[i].append(point)
    return blocks, {
        "m": w,
        "n": w,
        "blocks": [[{"side": s, "index": i} for s, i in b] for b in blocks],
    }


class ComposeStream:
    """Never-repeating operand pairs over all twelve categories, each
    request decode -> category compose -> encode, as ``diagcat compose``
    does without the process start."""

    name = "compose-stream"

    def __init__(self, seed: int, sizes: dict, reference: dict):
        self.seed = seed
        self.chunk = sizes["chunk"]
        self.library_size = sizes["library"]
        self.sample_every = sizes["sample_every"]
        ref = reference.get(self.name, {})
        self.ref_digests = (
            ref.get("digests", {}).get(str(seed), [])
            if ref.get("chunk") == self.chunk and ref.get("library") == self.library_size
            else []
        )

    # inputs ---------------------------------------------------------------
    def setup(self) -> None:
        # The diagram catalogue is the same for every seed, so that seeds
        # differ only in the pairs and decorations they draw from it.
        rng = random.Random("compose-stream/library")
        affine = {w: self._affine_library(rng, w) for w in WIDTHS}
        self.shadows = {}
        for w, lib in affine.items():
            seen, out = set(), []
            for d in lib:
                shadow = annular.project_to_ann(d)
                if shadow.base not in seen:
                    seen.add(shadow.base)
                    out.append(serialize.encode("Ann", shadow))
            self.shadows[w] = out
        self.affine_json = {
            w: [(serialize.encode("aTLe", d), d.rank) for d in lib]
            for w, lib in affine.items()
        }
        self.rng = random.Random(f"compose-stream/{self.seed}/stream")
        self.buckets = [(c, w) for c in CATEGORY_LAYER for w in WIDTHS]
        self.round: list = []
        self.seen: set[int] = set()
        self.next_op = 0
        warm = random.Random(f"compose-stream/{self.seed}/warm-up")
        for cat in CATEGORY_LAYER:
            _, l, r = self._draw(warm, cat, 4)
            c = serialize.CATEGORIES[cat]
            c.encode(c.compose(c.decode(l), c.decode(r))[0])

    def _affine_library(self, rng: random.Random, w: int):
        gens = [annular.zeta(w), annular.sigma_affine(annular.zeta(w))]
        gens += [annular.cup_cap(w, i) for i in range(1, w + 1)]
        seen, out = set(), []
        for _ in range(20 * self.library_size):
            d = annular.affine_identity(w)
            for _ in range(rng.randint(1, 8)):
                d = annular.compose_affine(d, rng.choice(gens)).product
            if d not in seen:
                seen.add(d)
                out.append(d)
                if len(out) == self.library_size:
                    break
        return out

    def _draw(self, rng: random.Random, cat: str, w: int):
        """One operand pair of the category at width w, as JSON."""
        regular = cat.endswith("-bar") or (cat in ("aTL", "aTLd", "Annd") and rng.random() < 0.5)
        lo = -3 if regular else 0

        def deco(obj):
            return {**obj, "regular": regular}

        def operand():
            if CATEGORY_LAYER[cat] != "annular":
                blocks, obj = _partition_json(rng, w)
                if cat == "P":
                    return obj
                if cat.startswith("Pd"):
                    return deco({**obj, "shift": rng.randint(lo, 4)})
                genus = {f"{s}{i}": rng.randint(lo, 3) for s, i in map(_least, blocks)}
                if cat.startswith("Cob0"):
                    return deco({**obj, "genus": genus})
                spectrum = {
                    str(g): rng.choice((1, 2) if not regular else (-2, -1, 1, 2))
                    for g in rng.sample(range(0, 5), rng.randint(0, 2))
                }
                return deco({**obj, "genus": genus, "spectrum": spectrum})
            if cat in ("Ann", "Annd"):
                obj = rng.choice(self.shadows[w])
                return obj if cat == "Ann" else deco({**obj, "k": rng.randint(lo, 3)})
            obj, rank = rng.choice(self.affine_json[w])
            if cat == "aTLe":
                return obj
            k = 0 if rank > 0 else rng.randint(lo, 3)
            if cat == "aTL":
                return deco({**obj, "k": k})
            return deco({**obj, "k": k, "k0": rng.randint(lo, 3)})

        left, right = operand(), operand()
        return _key([cat, left, right]), left, right

    def next_chunk(self, size: int):
        """The next ``size`` requests of the stream.  Buckets (category,
        width) take turns in rounds of shuffled order, so every seed sends
        the same mix; a bucket whose pairs keep repeating is retired, so
        no pair is ever sent twice."""
        out = []
        while len(out) < size and self.buckets:
            if not self.round:
                self.round = list(self.buckets)
                self.rng.shuffle(self.round)
            bucket = self.round.pop()
            if bucket not in self.buckets:
                continue
            for _ in range(30):
                key, left, right = self._draw(self.rng, *bucket)
                if key not in self.seen:
                    self.seen.add(key)
                    out.append((self.next_op, bucket, left, right))
                    self.next_op += 1
                    break
            else:
                self.buckets.remove(bucket)
        return out

    # measurement ----------------------------------------------------------
    @staticmethod
    def _request(tracer, op, cat, w, left, right):
        c = serialize.CATEGORIES[cat]
        layer = CATEGORY_LAYER[cat]
        dec = "serialize.decode." + (f"annular.n{w}" if layer == "annular" else layer)
        x = tracer.call(dec, op, c.decode, left)
        y = tracer.call(dec, op, c.decode, right)
        product, diag = tracer.call(f"{layer}.compose.n{w}", op, c.compose, x, y)
        return tracer.call("serialize.encode", op, c.encode, product), diag

    def run(self, tracer, clock, seconds=None, max_ops=None) -> PassResult:
        res = PassResult()
        chunk_index = 0
        elapsed = 0.0
        while elapsed < seconds and (max_ops is None or res.attempted < max_ops):
            requests = self.next_chunk(self.chunk)
            if not requests:
                break
            outputs = []
            t_chunk = clock()
            for op, (cat, w), left, right in requests:
                t0 = clock()
                try:
                    out = tracer.call("bench.request", op, self._request, tracer, op, cat, w, left, right)
                except Exception as exc:
                    out = None
                    res.fail(f"request {op} ({cat}, n={w})", exc)
                res.latencies.extend((t0, clock()))
                outputs.append(out)
                if elapsed + (clock() - t_chunk) >= seconds:
                    break
            res.walls.append((t_chunk, clock()))
            elapsed += res.walls[-1][1] - t_chunk
            res.attempted += len(outputs)
            self._verify(res, chunk_index, requests[:len(outputs)], outputs)
            chunk_index += 1
        res.counts["retired_buckets"] = len(CATEGORY_LAYER) * len(WIDTHS) - len(self.buckets)
        return res

    def _verify(self, res, chunk_index, requests, outputs) -> None:
        """Whole chunks with a stored digest are compared with it; the
        rest are sampled for codec round trips and associativity."""
        if len(requests) == self.chunk:
            digest = self.digest(outputs)
            res.counts.setdefault("digests", []).append(digest)
            if chunk_index < len(self.ref_digests):
                if digest != self.ref_digests[chunk_index]:
                    for _ in range(sum(out is not None for out in outputs)):
                        res.fail(f"chunk {chunk_index} output digest differs from the reference")
                return
        for (op, (cat, _), left, right), out in zip(requests, outputs):
            if out is None or op % self.sample_every:
                continue
            try:
                c = serialize.CATEGORIES[cat]
                x, y = c.decode(left), c.decode(right)
                product = c.decode(out[0])
                ok = c.encode(product) == out[0] and product == c.compose(x, y)[0]
                ok = ok and c.compose(product, y)[0] == c.compose(x, c.compose(y, y)[0])[0]
            except Exception as exc:
                res.fail(f"sample check of request {op} ({cat})", exc)
                continue
            if not ok:
                res.fail(f"sample check of request {op} ({cat}) disagrees")

    @staticmethod
    def digest(outputs) -> str:
        h = hashlib.sha256()
        for out in outputs:
            record = None if out is None else {"product": out[0], **out[1]}
            h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
            h.update(b"\n")
        return h.hexdigest()[:16]


# -- monoid-tables ----------------------------------------------------------

class MonoidTables:
    """Whole tables in bulk: the hom(3,3) product table with dead-block
    counts, annular closures, their FiniteMonoid validation, affine
    enumeration, and registry identities over ann3 and ann4.  Latency
    samples are the hom(3,3) products; the other jobs count towards wall
    time and ops_per_s."""

    name = "monoid-tables"

    def __init__(self, seed: int, sizes: dict, reference: dict):
        self.seed = seed
        self.ann_sizes = sizes["ann"]
        self.enumerations = [tuple(e) for e in sizes["enumerate"]]
        self.budget = sizes["budget"]
        self.ref = reference.get(self.name, {})
        self.verdicts = _stored_verdicts(self.ref, self.budget)

    def setup(self) -> None:
        rng = random.Random(f"monoid-tables/{self.seed}")
        self.hom = list(partitions.enumerate_partitions(3, 3))
        rng.shuffle(self.hom)
        annular.build_ann_monoid(2)
        partitions.compose(self.hom[0], self.hom[1])

    def _hom_table(self, res, clock):
        """All 203^2 products with their dead-block counts; each product
        is one timed operation."""
        counts: dict[int, int] = {}
        lat = res.latencies
        for x in self.hom:
            for y in self.hom:
                t0 = clock()
                try:
                    b = partitions.compose(x, y).b
                    counts[b] = counts.get(b, 0) + 1
                except Exception as exc:
                    res.fail("hom(3,3) product", exc)
                lat.extend((t0, clock()))
        res.attempted += len(self.hom) ** 2
        return counts

    def run(self, tracer, clock, seconds=None, max_ops=None) -> PassResult:
        res = PassResult()
        ops = []
        ops.append(("hom33", "partitions.hom_table", self._hom_table, (res, clock)))
        for n in self.ann_sizes:
            ops.append((f"ann{n}", f"annular.build_ann_monoid.n{n}", annular.build_ann_monoid, (n,)))
        for n in self.ann_sizes:
            ops.append((f"fm{n}", "auxmonoids.finite_monoid.n{}", auxmonoids.FiniteMonoid, None))
        for args in self.enumerations:
            tag = "-".join(map(str, args))
            ops.append((f"enum{tag}", f"annular.enumerate_affine.{tag}",
                        lambda a=args: sum(1 for _ in annular.enumerate_affine(*a)), ()))
        built = {}
        t_pass = clock()
        for op, (key, span, fn, args) in enumerate(ops):
            if key.startswith("fm"):
                n = int(key[2:])
                if n not in built:
                    continue
                args = (built[n].monoid.table,)
                span = span.format(len(built[n].elements))
            try:
                out = tracer.call(span, op, fn, *args)
            except Exception as exc:
                res.fail(f"{key}", exc)
                out = None
            res.attempted += 1
            if key.startswith("ann") and out is not None:
                built[int(key[3:])] = out
            self._check(res, key, out)
        self._searches(res, tracer, built, len(ops))
        res.walls.append((t_pass, clock()))
        return res

    def _check(self, res, key, out) -> None:
        if out is None:
            return
        if key == "hom33":
            value = {str(b): c for b, c in sorted(out.items())}
        elif key.startswith("ann"):
            value = len(out.elements)
            res.counts[f"annular.ann_elements.n{key[3:]}"] = value
        elif key.startswith("enum"):
            value = out
        else:
            return
        res.counts[key] = value
        expected = self.ref.get("counts", {}).get(key)
        if expected is not None and value != expected:
            res.fail(f"{key}: got {value!r}, reference {expected!r}")

    def _searches(self, res, tracer, built, op) -> None:
        verdicts = self.verdicts
        for n in (3, 4):
            if n not in built:
                continue
            name = f"ann{n}"
            monoid = identities.monoid_from_table(built[n].monoid, name)
            for ident_name, ident in registry_checks(monoid):
                key = f"{name}/{ident_name}"
                try:
                    v = tracer.call(f"identities.check_identity.{name}", op,
                                    identities.check_identity, ident, monoid, self.budget, self.seed)
                except Exception as exc:
                    res.fail(key, exc)
                    v = None
                res.attempted += 1
                res.searches += 1
                op += 1
                if v is None:
                    continue
                res.counts[f"verdict.{key}"] = v.status
                res.undecided += v.status == "unknown"
                if not _verdict_matches(v.status, verdicts.get(key)):
                    res.fail(f"{key}: verdict {v.status}, reference {verdicts.get(key)}")
                elif not _check_witness(ident, monoid, v):
                    res.fail(f"{key}: witness does not separate the sides")


# -- word-engine ------------------------------------------------------------

def _power_text(word: str) -> str:
    out, i = [], 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        out.append(word[i] + (str(j - i) if j - i > 1 else ""))
        i = j
    return "".join(out)


class WordEngine:
    """Seeded words through the word engine, direct multiplications in the
    auxiliary monoids, and registry identity searches over M, N, A21, sdp
    and rees at a fixed budget."""

    name = "word-engine"
    MONOIDS = ("M", "N", "A21", "sdp", "rees")

    def __init__(self, seed: int, sizes: dict, reference: dict):
        self.seed = seed
        self.lengths = sizes["lengths"]
        self.per_length = sizes["per_length"]
        self.budget = sizes["budget"]
        ref = reference.get(self.name, {})
        self.verdicts = _stored_verdicts(ref, self.budget)
        # The pools are fixed, so each sweep's digest is the same for every seed.
        self.ref_products = ref.get("products", {})

    def setup(self) -> None:
        # A word's canonical_form cost depends on where its answer sits in
        # the search order and spreads over two orders of magnitude, so the
        # words come from one catalogue for every seed; the seed orders
        # them and seeds the identity searches.
        rng = random.Random("word-engine/catalogue")
        texts, seen = [], set()
        for length in self.lengths:
            for i in range(self.per_length):
                letters = "xyzt"[: 3 + i % 2]
                while True:
                    w = "".join(rng.choice(letters) for _ in range(length))
                    if set(w) == set(letters) and w not in seen:
                        break
                seen.add(w)
                texts.append(_power_text(w))
        random.Random(f"word-engine/{self.seed}").shuffle(texts)
        self.texts = texts
        factories = {
            "M": identities.monoid_M,
            "N": identities.monoid_N,
            "A21": identities.monoid_A21,
            "sdp": identities.monoid_SDP,
            "rees": identities.monoid_REES,
        }
        self.monoids = {name: factories[name]() for name in self.MONOIDS}
        self.pools = {
            name: tuple(m.elements if m.elements is not None else m.pool)
            for name, m in self.monoids.items()
        }
        w = identities.parse_word("xyx")
        identities.canonical_form(w)
        identities.normal_form(w)

    @staticmethod
    def _word(tracer, op, text):
        w = tracer.call("identities.parse_word", op, identities.parse_word, text)
        bucket = f"len{len(w)}"
        nf = tracer.call("identities.normal_form", op, identities.normal_form, w)
        sorted_w, _ = tracer.call("identities.sort_to_normal", op, identities.sort_to_normal, w)
        cf = tracer.call(f"identities.canonical_form.{bucket}", op, identities.canonical_form, w)
        in_m = tracer.call("identities.holds_in_M", op, identities.holds_in_M, w, nf)
        in_n = tracer.call("identities.holds_in_N", op, identities.holds_in_N, w, cf)
        return w, nf, sorted_w, cf, in_m, in_n

    @staticmethod
    def _mul_all(tracer, op, name, mul, pool):
        span = f"auxmonoids.mul.{name}"
        return [tracer.call(span, op, mul, a, b) for a in pool for b in pool]

    @staticmethod
    def products_digest(products) -> str:
        """Digest of one sweep's products, in pool-pair order."""
        text = json.dumps([_canonical(p) for p in products], separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def run(self, tracer, clock, seconds=None, max_ops=None) -> PassResult:
        res = PassResult()
        words = []
        op = 0
        t_pass = clock()
        for text in self.texts:
            t0 = clock()
            try:
                words.append(tracer.call("bench.word", op, self._word, tracer, op, text))
            except Exception as exc:
                res.fail(f"word {text}", exc)
            res.latencies.extend((t0, clock()))
            res.attempted += 1
            op += 1
        # Latency samples are the word requests only; the product sweeps
        # and searches below count towards wall time and ops_per_s.
        sweeps = {}
        for name in self.MONOIDS:
            m = self.monoids[name]
            try:
                sweeps[name] = tracer.call(
                    "bench.mul", op, self._mul_all, tracer, op, name, m.mul, self.pools[name]
                )
            except Exception as exc:
                res.fail(f"products in {name}", exc)
            res.attempted += 1
            op += 1
        searches = []
        for name in self.MONOIDS:
            m = self.monoids[name]
            for ident_name, ident in registry_checks(m):
                try:
                    v = tracer.call(f"identities.check_identity.{name}", op,
                                    identities.check_identity, ident, m, self.budget, self.seed)
                    searches.append((name, ident_name, ident, v))
                except Exception as exc:
                    res.fail(f"{name}/{ident_name}", exc)
                res.attempted += 1
                res.searches += 1
                op += 1
        res.walls.append((t_pass, clock()))
        self._check(res, words, sweeps, searches)
        return res

    def _check(self, res, words, sweeps, searches) -> None:
        for name, products in sweeps.items():
            digest = self.products_digest(products)
            res.counts[f"products.{name}"] = digest
            expected = self.ref_products.get(name)
            if expected is not None and digest != expected:
                res.fail(f"products in {name}: digest {digest}, reference {expected}")
        for w, nf, sorted_w, cf, in_m, in_n in words:
            try:
                ok = (
                    in_m
                    and in_n
                    and sorted_w == nf
                    and identities.canonical_form(cf) == cf
                )
            except Exception as exc:
                res.fail(f"checking word {w}", exc)
                continue
            if not ok:
                res.fail(f"word {w}: normal/canonical form checks disagree")
        verdicts = self.verdicts
        for name, ident_name, ident, v in searches:
            key = f"{name}/{ident_name}"
            res.counts[f"verdict.{key}"] = v.status
            res.undecided += v.status == "unknown"
            if not _verdict_matches(v.status, verdicts.get(key)):
                res.fail(f"{key}: verdict {v.status}, reference {verdicts.get(key)}")
                continue
            try:
                ok = _check_witness(ident, self.monoids[name], v)
            except Exception as exc:
                res.fail(f"{key}: witness check", exc)
                continue
            if not ok:
                res.fail(f"{key}: witness does not separate the sides")


# -- suite ------------------------------------------------------------------

class Suite:
    """The acceptance battery ``run_suite(seed)``, one check per call
    (``filter`` set to the check's name) so that each check is timed on
    the benchmark's clock; the checks run in order in one interpreter,
    as in a single ``run_suite``."""

    name = "suite"

    def __init__(self, seed: int, sizes: dict, reference: dict):
        self.seed = seed
        self.checks = [c for c in suite.CHECK_NAMES if sizes["filter"] is None or sizes["filter"] in c]
        self.ref_details = reference.get(self.name, {}).get("details", {}).get(str(seed))

    def setup(self) -> None:
        suite.run_suite(self.seed, filter="ann3-structure")

    def run(self, tracer, clock, seconds=None, max_ops=None) -> PassResult:
        res = PassResult()
        t_pass = clock()
        for op, check in enumerate(self.checks):
            t0 = clock()
            try:
                report = tracer.call("suite.run_suite", op, suite.run_suite, self.seed, check)
            except Exception as exc:
                report = None
                res.fail(check, exc)
            res.latencies.extend((t0, clock()))
            res.attempted += 1
            if report is None:
                continue
            ran = [r for r in report.results if r.status != "skip"]
            if [r.check for r in ran] != [check]:
                res.fail(f"{check}: filter ran {[r.check for r in ran]}")
                continue
            r = ran[0]
            res.add_sample(f"suite.{r.check}_s", r.elapsed)
            if r.status != "pass":
                res.fail(f"{r.check}: {r.detail}")
            elif self.ref_details is not None and r.detail != self.ref_details.get(r.check):
                res.fail(f"{r.check}: detail differs from the stored reference")
        res.walls.append((t_pass, clock()))
        return res


WORKLOADS = {cls.name: cls for cls in (ComposeStream, MonoidTables, WordEngine, Suite)}

# Sizes of each workload's input set; ``smoke`` is the toy size used by
# the benchmark's own test.
SIZES = {
    "compose-stream": {
        "full": {"chunk": 1000, "library": 64, "sample_every": 25},
        "smoke": {"chunk": 40, "library": 6, "sample_every": 5},
    },
    "monoid-tables": {
        "full": {"ann": [3, 4, 5], "enumerate": [[3, 3, 2], [4, 4, 1]], "budget": 200_000},
        "smoke": {"ann": [3, 4], "enumerate": [[2, 2, 1]], "budget": 2_000},
    },
    "word-engine": {
        "full": {"lengths": [6, 7, 8, 9], "per_length": 16, "budget": 4_000},
        "smoke": {"lengths": [6, 7, 8, 9], "per_length": 1, "budget": 200},
    },
    "suite": {
        "full": {"filter": None},
        "smoke": {"filter": "ann3-structure"},
    },
}


def provenance() -> dict:
    import numpy

    return {"numpy": numpy.__version__, "diagcat": diagcat.__version__}
