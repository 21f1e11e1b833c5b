"""Diagram categories with genus bookkeeping.

Partition arrows with dead-block counting, their deformed and labeled
quotients, combinatorial cobordisms with handle spectra, affine
planar diagrams with wrap counters, the auxiliary monoids used to
separate these families, a word engine with structural equivalence
criteria, and an acceptance suite tying it all together.
"""

from .errors import (
    CrossingError,
    DiagcatError,
    EmptyWord,
    MissingLetter,
    NegativeLabel,
    NoInvolution,
    ParseError,
    RangeError,
    RankZero,
    ShapeMismatch,
    UnknownMonoid,
)
from .partitions import (
    IN,
    OUT,
    CompositionResult,
    Partition,
    Vertex,
    block_stats,
    compose,
    enumerate_partitions,
    identity_partition,
    is_idempotent_structurally,
    make_partition,
    reflect,
    vin,
    vout,
)
from .cobordisms import (
    Cobordism,
    LabeledPartition,
    Spectrum,
    compose_cobordism,
    fiber_product_oracle,
    make_cobordism,
    rho,
    sigma,
    star_cobordism,
    star_labeled,
    to_labeled,
)
from .annular import (
    AffineDiagram,
    AnnularPartition,
    affine_identity,
    affine_power,
    build_ann_monoid,
    compose_affine,
    cup_cap,
    enumerate_affine,
    lambda_pow,
    make_affine,
    make_ann,
    project_to_ann,
    rho_affine,
    shift_gap,
    sigma_affine,
    zeta,
)
from .auxmonoids import (
    A2_ONE,
    A2_ZERO,
    CF_CIRCLE,
    CF_EMPTY,
    A21Element,
    CircleForest,
    FiniteMonoid,
    ReesL2Element,
    SDPElement,
    a2_image,
    a21_elements,
    a21_mul,
    a21_pair,
    a21_star,
    genus_pair,
    rees_mul,
    rees_star,
    sdp_mul,
    sdp_star,
)
from .identities import (
    IDENTITY_REGISTRY,
    Identity,
    Monoid,
    Verdict,
    Word,
    canonical_form,
    check_identity,
    evaluate,
    extreme_rep,
    holds_in_M,
    holds_in_N,
    monoid_A21,
    monoid_M,
    monoid_N,
    monoid_REES,
    monoid_SDP,
    monoid_from_table,
    normal_form,
    parse_identity,
    parse_word,
    sort_step,
    sort_to_normal,
    zimin,
)
from .serialize import CATEGORIES, Deformed, decode, encode

__version__ = "0.1.0"

# The suite imports numpy, which nothing else needs at import time, so its
# names load on first use (PEP 562).
_SUITE_NAMES = ("CHECK_NAMES", "Report", "run_suite")


def __getattr__(name: str):
    if name in _SUITE_NAMES:
        from . import suite

        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
