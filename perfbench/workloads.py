"""Seeded corpora for the three benchmark workloads, and the expected answers.

Every corpus item carries a ``family`` (a generator type or a shape family),
an optional ``label`` (the dynamical type the classifier must return) and a
dict of reversibility flags the report must show.  The corpus is split into
chunks; one benchmark pass processes one chunk.  On ``generic`` and
``defective`` a chunk goes to each CLI command as one batch; on ``shapes``
every family gets a batch of its own, so that the batches that crash today
(``KNOWN_FAILURES``) take down only their own family.
"""

from __future__ import annotations

import numpy as np

from qproj import generate as gen

GENERIC_TYPES = ("regular-elliptic", "regular-loxodromic", "screw-loxodromic")
DEFECTIVE_TYPES = (
    "vertical-translation",
    "non-vertical-translation",
    "ellipto-parabolic",
    "ellipto-translation",
    "loxo-parabolic",
)
# generator types added to the reversibility shape families on `shapes`
SHAPES_TYPES = ("identity", "elliptic-reflection", "homothety")

# (family prefix, sampler name in qproj.generate, kinds, expected flags)
SHAPE_FAMILIES = (
    ("reversible", "reversible_shape", ("i", "ii", "iii", "iv"), {"reversible_sl": True}),
    ("strong", "strong_shape", ("i", "ii", "iii", "iv"), {"strongly_reversible_sl": True}),
    ("non-strong", "nonstrong_shape", ("1", "2", "3", "5", "6", "7", "8"),
     {"reversible_sl": True, "strongly_reversible_sl": False}),
    ("negative", "negative_shape", ("i", "ii", "iii", "iv"), {"negative_reversible": True}),
    ("non-reversible", "nonreversible_shape", ("1", "2"), {"reversible_psl": False}),
)

# Every class of a unit-modulus type is similar to its own inverse, so these
# are reversible; the generator keeps the other types' moduli unpaired, so
# they are not reversible even in PSL(3,H).
_UNIT_MODULUS = {
    "Identity", "RegularElliptic", "EllipticReflection", "VerticalTranslation",
    "NonVerticalTranslation", "ElliptoParabolic", "ElliptoTranslation",
}

# Per workload: matrices of each family in a chunk (one pass), chunks in the
# corpus, chunks the traced run covers, whether CLI batches are split by
# family, and the report kinds whose `verify` replay is timed.  The corpus
# is large enough that a run rarely revisits a chunk, so a run's rates
# average over many distinct matrices of each family.
WORKLOADS = {
    "generic": {"per_family": 4, "chunks": 64, "trace_chunks": 10, "batch_by_family": False,
                "timed_verify": ("classification", "reversibility", "decomposition")},
    "defective": {"per_family": 2, "chunks": 40, "trace_chunks": 8, "batch_by_family": False,
                  "timed_verify": ("classification", "reversibility", "decomposition")},
    # the classification replay re-runs jordan_form; the other two do not,
    # so `verify_per_s` here is the control that analyse-once must not move
    "shapes": {"per_family": 1, "chunks": 24, "trace_chunks": 6, "batch_by_family": True,
               "timed_verify": ("reversibility", "decomposition")},
}


# The documented baseline failure: J2(l) + l with non-real l passes
# decompose._is_simple_data, and _realify_data then raises IndexError, so
# classification and decomposition of these two shape families fail.  Any
# other failure makes a run incorrect.
KNOWN_FAILURES = {
    (family, question): "IndexError"
    for family in ("non-strong-7", "negative-iii")
    for question in ("classify", "decompose")
}


def is_known_failure(family, question, exc) -> bool:
    return type(exc).__name__ == KNOWN_FAILURES.get((family, question))


def label_flags(label: str) -> dict:
    if label in _UNIT_MODULUS:
        return {"reversible_sl": True, "reversible_psl": True}
    return {"reversible_sl": False, "reversible_psl": False}


def _typed(type_name, rng):
    inst = gen.generate(type_name, rng=rng)
    return {"family": type_name, "matrix": inst.matrix, "label": inst.label,
            "flags": label_flags(inst.label)}


def _item_makers(workload):
    """One function rng -> corpus item per family, in chunk order."""
    if workload == "generic":
        return [lambda rng, t=t: _typed(t, rng) for t in GENERIC_TYPES]
    if workload == "defective":
        return [lambda rng, t=t: _typed(t, rng) for t in DEFECTIVE_TYPES]
    if workload == "shapes":
        makers = []
        for prefix, sampler, kinds, flags in SHAPE_FAMILIES:
            for kind in kinds:
                def make(rng, sampler=sampler, kind=kind, flags=flags, fam=f"{prefix}-{kind}"):
                    canonical = getattr(gen, sampler)(kind, rng)
                    matrix, _ = gen.conjugated(canonical, rng)
                    return {"family": fam, "matrix": matrix, "label": None, "flags": flags}
                makers.append(make)
        return makers + [lambda rng, t=t: _typed(t, rng) for t in SHAPES_TYPES]
    raise ValueError(f"unknown workload {workload!r}")


def build_corpus(workload: str, seed: int):
    """List of chunks; each chunk is a list of corpus items grouped by family."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    makers = _item_makers(workload)
    return [
        [make(rng) for make in makers for _ in range(spec["per_family"])]
        for _ in range(spec["chunks"])
    ]


def check_classification(item, rep) -> str | None:
    if item["label"] is not None and rep["minor"] != item["label"]:
        return f"{item['family']}: classified {rep['minor']}, expected {item['label']}"
    return None


def check_reversibility(item, rep) -> str | None:
    for flag, want in item["flags"].items():
        if bool(rep[flag]) != want:
            return f"{item['family']}: {flag}={rep[flag]}, expected {want}"
    return None


def check_decomposition(item, n_factors) -> str | None:
    if n_factors > 4:
        return f"{item['family']}: {n_factors} factors exceed the bound of four"
    return None
