"""The four benchmark workloads and their known answers.

A workload turns a seed into a list of operations.  Each operation is a
name and a callable that runs one call into foldcx and returns whether the
verdict equals the known answer.  Operations look foldcx functions up
through their module at call time (``fx.verify.closure_search``), so the
tracer's rebinding sees the benchmark's own calls too.

The seed renames every cell of the complexes the benchmark passes in (the
``oracle`` starts and the ``certify`` inputs).  ``lemmas`` and ``theorem``
build their own inputs, so for them the seed is recorded and has no effect.
"""

from __future__ import annotations

import random
from string import ascii_lowercase

NAME_LENGTH = 8


def _fresh_names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """`count` distinct random names of one length, in sorted order."""
    names: set[str] = set()
    while len(names) < count:
        names.add(prefix + "".join(rng.choices(ascii_lowercase, k=NAME_LENGTH)))
    return sorted(names)


def renamed(fx, morphism, rng: random.Random):
    """An isomorphic copy of `morphism` with random cell names.

    The new names keep the shortlex order of the old ones.  foldcx breaks
    every tie by that order (union-find representatives, collapse order,
    spanning trees), so the copy costs the same work as the original.  A
    renaming that also shuffled the order spread certify's pass time from
    4.0 to 5.4 s across ten seeds (2-core Xeon, CPython 3.11.7), an
    interquartile range of 21% of the median, wider than any useful
    regression bound.
    """
    cx = morphism.complex
    vmap = dict(zip(cx.vertices, _fresh_names(rng, "v", len(cx.vertices))))
    emap = dict(zip((e.id for e in cx.edges), _fresh_names(rng, "e", len(cx.edges))))
    fmap = dict(zip((f.id for f in cx.faces), _fresh_names(rng, "f", len(cx.faces))))
    complexes = fx.complexes
    renamed_cx = complexes.TwoComplex.make(
        [vmap[v] for v in cx.vertices],
        [complexes.Edge(emap[e.id], vmap[e.tail], vmap[e.head]) for e in cx.edges],
        [
            complexes.Face(fmap[f.id], tuple((emap[eid], s) for eid, s in f.boundary))
            for f in cx.faces
        ],
    )
    return complexes.Morphism(
        renamed_cx,
        morphism.presentation,
        {emap[e]: label for e, label in morphism.edge_labels.items()},
        {fmap[f]: t for f, t in morphism.face_types.items()},
    )


def oracle(fx, seed: int):
    """Closure search from D:1 and Dt:1 against enumeration at 4 vertices;
    all three must give exactly the classes C:1 and C:3."""
    rng = random.Random(seed)
    families = fx.families
    expected = {fx.canonical.canonical_form(families.build_C(i)) for i in (1, 3)}
    starts = {
        spec: renamed(fx, families.build_family(families.parse_family_spec(spec)), rng)
        for spec in ("D:1", "Dt:1")
    }

    def closure(start):
        result = fx.verify.closure_search(start, 5)
        forms = [fx.canonical.canonical_form(m) for m, _ in result.results]
        return len(forms) == len(expected) and set(forms) == expected

    def enumeration():
        found = fx.enumeration.enumerate_immersions(fx.enumeration.EnumerationFilter(4))
        forms = [fx.canonical.canonical_form(m) for m in found]
        return len(forms) == len(expected) and set(forms) == expected

    ops = [(f"closure_search({spec}, 5)", lambda s=start: closure(s)) for spec, start in starts.items()]
    ops.append(("enumerate_immersions(4)", enumeration))
    return ops


LEMMA_ROWS = {
    "check_lemma_vertex_identification": 2600,
    "check_lemma_edge_identification": 992,
    "check_lemma_coupling": 96,
}


def lemmas(fx, seed: int):
    """The three lemma checkers at max_i 31: every row passes."""

    def check(name, rows):
        report = getattr(fx.verify, name)(31)
        return report.passed and len(report.rows) == rows

    return [
        (f"{name}(31)", lambda n=name, r=rows: check(n, r))
        for name, rows in LEMMA_ROWS.items()
    ]


THEOREM_CLASSES = {"both_type_classes": 3, "short-only_classes": 0, "long-only_classes": 7}


def theorem(fx, seed: int):
    """The main theorem at 5 vertices, with its class counts."""

    def check():
        report = fx.verify.verify_main_theorem(5)
        counts = {key: report.meta.get(key) for key in THEOREM_CLASSES}
        return report.passed and counts == THEOREM_CLASSES

    return [("verify_main_theorem(5)", check)]


CERTIFY = (
    ("D:100", "collapsible"),
    ("D:200", "collapsible"),
    ("D:300", "collapsible"),
    ("C:51", "simply-connected-acyclic"),
    ("C:101", "simply-connected-acyclic"),
    ("C:201", "simply-connected-acyclic"),
)


def _less_last_long_cell(fx, morphism):
    """`morphism` without its last long cell: Euler characteristic 0, so
    homology refutes contractibility."""
    cx = morphism.complex
    long_cells = [f.id for f in cx.faces if morphism.face_types[f.id] == fx.families.TYPE_LONG]
    last = max(long_cells, key=fx.complexes.id_key)
    return fx.complexes.Morphism(
        fx.complexes.TwoComplex.make(cx.vertices, cx.edges, [f for f in cx.faces if f.id != last]),
        morphism.presentation,
        morphism.edge_labels,
        {f: t for f, t in morphism.face_types.items() if f != last},
    )


def certify(fx, seed: int):
    """Contractibility certificates of known kind."""
    rng = random.Random(seed)
    families = fx.families

    def build(spec):
        return families.build_family(families.parse_family_spec(spec))

    inputs = [(spec, build(spec), kind) for spec, kind in CERTIFY]
    inputs.append(
        ("C:101 less its last long cell", _less_last_long_cell(fx, build("C:101")), "not-contractible")
    )
    ops = []
    for label, morphism, kind in inputs:
        cx = renamed(fx, morphism, rng).complex
        ops.append(
            (
                f"certify_contractible({label})",
                lambda c=cx, k=kind: fx.topology.certify_contractible(c).kind == k,
            )
        )
    return ops


WORKLOADS = {"oracle": oracle, "lemmas": lemmas, "theorem": theorem, "certify": certify}
