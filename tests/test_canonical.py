import random

import pytest
from hypothesis import given, settings, strategies as st

from foldcx.canonical import _check_bijection, _refined, canonical_form, isomorphic
from foldcx.complexes import ComplexError, Edge, Face, Morphism, TwoComplex
from foldcx.families import build_C, build_D, kp, target_presentation
from foldcx.presentations import parse_presentation
from foldcx.complexes import presentation_complex

from helpers import folded_prefold, four_vertex_classes, random_prefold


def relabeled(f: Morphism, suffix: str) -> Morphism:
    """Same complex with every id decorated, to exercise name independence."""
    ren = lambda x: f"{x}_{suffix}"
    cx = f.complex
    edges = [Edge(ren(e.id), ren(e.tail), ren(e.head)) for e in cx.edges]
    faces = [
        Face(ren(x.id), tuple((ren(eid), s) for eid, s in x.boundary))
        for x in cx.faces
    ]
    return Morphism(
        TwoComplex.make([ren(v) for v in cx.vertices], edges, faces),
        f.presentation,
        {ren(e): lab for e, lab in f.edge_labels.items()},
        {ren(x): t for x, t in f.face_types.items()},
    )


def test_c1_isomorphic_to_target_complex():
    assert isomorphic(build_C(1), kp()) is not None


def test_even_index_collapses_to_odd_part():
    assert canonical_form(build_C(4)) == canonical_form(build_C(1))
    assert canonical_form(build_C(6)) == canonical_form(build_C(3))
    assert canonical_form(build_C(12)) == canonical_form(build_C(3))


def test_distinct_families_not_isomorphic():
    assert isomorphic(build_C(3), build_C(5)) is None
    assert isomorphic(build_D(1), build_D(2)) is None


def test_relabeling_preserves_canonical_form():
    for f in (kp(), build_D(2), build_C(3), build_C(5, "tilde"), build_D(3, "tilde")):
        assert canonical_form(relabeled(f, "x")) == canonical_form(f)


def test_explicit_bijection_is_checked_and_usable():
    f = build_C(3)
    g = relabeled(f, "copy")
    mapping = isomorphic(f, g)
    assert mapping is not None
    assert set(mapping["vertices"]) == set(f.complex.vertices)
    assert set(mapping["vertices"].values()) == set(g.complex.vertices)
    for e in f.complex.edges:
        img = mapping["edges"][e.id]
        assert g.edge_labels[img] == f.edge_labels[e.id]


def test_target_mismatch_raises():
    other = presentation_complex(parse_presentation("a,b|abAB"))
    with pytest.raises(ComplexError, match="different targets"):
        isomorphic(kp(), other)


def test_iso_is_equivalence_on_sample():
    sample = [kp(), build_C(1), build_C(3), build_C(3, "tilde"), build_D(1), build_D(2)]
    for f in sample:
        assert isomorphic(f, f) is not None  # reflexive
    for f in sample:
        for g in sample:
            assert (isomorphic(f, g) is None) == (isomorphic(g, f) is None)  # symmetric
    for f in sample:
        for g in sample:
            for h in sample:
                if isomorphic(f, g) and isomorphic(g, h):
                    assert isomorphic(f, h)  # transitive


def test_canonical_equality_coincides_with_iso_on_sample():
    sample = [kp(), build_C(1), build_C(3), build_C(5), build_D(0), build_D(1), build_D(2)]
    for f in sample:
        for g in sample:
            assert (canonical_form(f) == canonical_form(g)) == (
                isomorphic(f, g) is not None
            )


def test_fast_and_refinement_paths_agree_on_iso_decision():
    # a disconnected copy forces the refinement path; the decision against a
    # connected complex must still be correct (they are never isomorphic)
    f = build_C(3)
    cx = f.complex
    extra = TwoComplex.make(
        list(cx.vertices) + ["w0"], list(cx.edges), list(cx.faces)
    )
    disconnected = Morphism(extra, f.presentation, dict(f.edge_labels), dict(f.face_types))
    assert canonical_form(disconnected) != canonical_form(f)
    assert isomorphic(disconnected, f) is None
    # and a relabeled disconnected copy matches through the refinement path
    assert canonical_form(relabeled(disconnected, "y")) == canonical_form(disconnected)


def test_duplicate_faces_handled_by_refinement_path():
    # duplicate faces break local injectivity at an edge but leave the
    # skeleton folded, so the breadth-first route must order them as a multiset
    pres = target_presentation()
    cx = TwoComplex.make(
        ["v0"],
        [Edge("b0", "v0", "v0")],
        [Face("f0", (("b0", 1),)), Face("f1", (("b0", 1),))],
    )
    doubled = Morphism(cx, pres, {"b0": "b"}, {"f0": 0, "f1": 0})
    assert canonical_form(relabeled(doubled, "z")) == canonical_form(doubled)
    mapping = isomorphic(doubled, relabeled(doubled, "w"))
    assert mapping is not None


def test_parallel_edges_handled_by_refinement_path():
    pres = target_presentation()
    cx = TwoComplex.make(
        ["v0", "v1"],
        [Edge("a0", "v0", "v1"), Edge("a1", "v0", "v1")],
        [],
    )
    parallel = Morphism(cx, pres, {"a0": "a", "a1": "a"}, {})
    assert canonical_form(relabeled(parallel, "q")) == canonical_form(parallel)


def test_canonical_form_deterministic_across_shuffled_input_order():
    rng = random.Random(11)
    f = build_C(5)
    base = canonical_form(f)
    cx = f.complex
    for _ in range(5):
        vs = list(cx.vertices)
        es = list(cx.edges)
        fs = list(cx.faces)
        rng.shuffle(vs)
        rng.shuffle(es)
        rng.shuffle(fs)
        shuffled = Morphism(
            TwoComplex.make(vs, es, fs),
            f.presentation,
            dict(f.edge_labels),
            dict(f.face_types),
        )
        assert canonical_form(shuffled) == base


def test_check_bijection_rejects_a_doctored_mapping():
    f = build_C(3)
    g = relabeled(f, "copy")
    mapping = isomorphic(f, g)
    edges = mapping["edges"]
    edges["a1"], edges["b0"] = edges["b0"], edges["a1"]  # labels a and b
    with pytest.raises(RuntimeError, match="mismatched edge"):
        _check_bijection(f, g, mapping)


# -- property tests: the breadth-first route against the refinement reference

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


morphisms = st.one_of(
    st.sampled_from(range(139)).map(lambda k: four_vertex_classes()[k]),
    st.sampled_from(range(400)).map(folded_prefold),
)


def scrambled(f: Morphism, rng: random.Random) -> Morphism:
    """An isomorphic copy with permuted ids, so shortlex order changes, and
    with every cell list handed to make in shuffled order."""
    cx = f.complex
    ids = [*cx.vertices, *(e.id for e in cx.edges), *(x.id for x in cx.faces)]
    fresh = [f"c{k}" for k in range(len(ids))]
    rng.shuffle(fresh)
    ren = dict(zip(ids, fresh))
    vs = [ren[v] for v in cx.vertices]
    es = [Edge(ren[e.id], ren[e.tail], ren[e.head]) for e in cx.edges]
    fs = [Face(ren[x.id], tuple((ren[e], s) for e, s in x.boundary)) for x in cx.faces]
    for cells in (vs, es, fs):
        rng.shuffle(cells)
    return Morphism(
        TwoComplex.make(vs, es, fs),
        f.presentation,
        {ren[e]: lab for e, lab in f.edge_labels.items()},
        {ren[x]: t for x, t in f.face_types.items()},
    )


@PROPERTY
@given(morphisms, morphisms, st.booleans(), st.randoms(use_true_random=False))
def test_canonical_form_decides_iso_like_refinement(f, other, copy, rng):
    g = scrambled(f, rng) if copy else other
    assert (canonical_form(f) == canonical_form(g)) == (_refined(f)[0] == _refined(g)[0])
    assert (canonical_form(f) == canonical_form(g)) == (isomorphic(f, g) is not None)


@PROPERTY
@given(morphisms, st.randoms(use_true_random=False))
def test_canonical_form_invariant_under_relabelling_and_order(f, rng):
    assert canonical_form(scrambled(f, rng)) == canonical_form(f)
