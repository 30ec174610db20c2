import functools
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from foldcx.canonical import (
    _bfs,
    _check_bijection,
    _refined,
    canonical_form,
    canonical_key,
    isomorphic,
)
from foldcx.complexes import ComplexError, Compact, Edge, Face, Morphism, TwoComplex, _compact
from foldcx.families import build_C, build_D, kp, target_presentation
from foldcx.folding import (
    _coupling_base,
    _identify_edges_state,
    _identify_vertices_state,
    _immersion_state,
)
from foldcx.presentations import parse_presentation
from foldcx.complexes import presentation_complex

from helpers import (
    exhaustive_bfs,
    folded_prefold,
    four_vertex_classes,
    random_prefold,
    scrambled,
)


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


@PROPERTY
@given(morphisms, morphisms, st.booleans(), st.randoms(use_true_random=False))
def test_canonical_form_decides_iso_like_refinement(f, other, copy, rng):
    g = scrambled(f, rng) if copy else other
    refined_equal = _refined(_compact(f))[0] == _refined(_compact(g))[0]
    assert (canonical_form(f) == canonical_form(g)) == refined_equal
    assert (canonical_form(f) == canonical_form(g)) == (isomorphic(f, g) is not None)


@PROPERTY
@given(morphisms, st.randoms(use_true_random=False))
def test_canonical_form_invariant_under_relabelling_and_order(f, rng):
    assert canonical_form(scrambled(f, rng)) == canonical_form(f)


# -- the pruned breadth-first key against the exhaustive loop


@functools.cache
def family_complexes() -> list[Morphism]:
    """D(0..40) and C(1..39 odd) in both variants."""
    return [
        build(i, variant)
        for variant in ("standard", "tilde")
        for build, indices in ((build_D, range(41)), (build_C, range(1, 40, 2)))
        for i in indices
    ]


@functools.cache
def lemma_quotients() -> list[Compact]:
    """The compact quotients the lemma checkers classify, at small sizes,
    in both variants and over all vertex and b-edge pairs."""
    out = []
    for variant in ("standard", "tilde"):
        for i in range(3, 12, 2):
            c = build_C(i, variant)
            base = _immersion_state(c)
            for u, v in combinations(c.complex.vertices, 2):
                out.append(_identify_vertices_state(base, u, v).compact())
        for i in range(1, 9):
            d = build_D(i, variant)
            base = _immersion_state(d)
            for j, k in combinations(range(i + 1), 2):
                out.append(_identify_edges_state(base, f"b{j}", f"b{k}").compact())
            for t, p in ((0, 0), (1, 0), (1, 2)):
                glued, cell = _coupling_base(base, t)
                out.append(_identify_edges_state(glued, cell[p], f"b{i}").compact())
    return out


def test_pruned_bfs_matches_the_exhaustive_loop_on_every_listed_input():
    inputs = [_compact(f) for f in family_complexes() + four_vertex_classes()]
    inputs += lemma_quotients()
    assert len(inputs) == 122 + 139 + 538
    for c in inputs:
        assert _bfs(c) == exhaustive_bfs(c)


def permuted(c: Compact, rng: random.Random) -> Compact:
    """c with its vertices, edges and faces renumbered at random, which
    changes the base order and so which bases the pruned loop drops."""
    ne, nf = len(c.tail), len(c.ftype)
    vnew, enew, fnew = (rng.sample(range(n), n) for n in (c.nv, ne, nf))
    tail, head, label = [0] * ne, [0] * ne, [0] * ne
    for e in range(ne):
        k = enew[e]
        tail[k], head[k], label[k] = vnew[c.tail[e]], vnew[c.head[e]], c.label[e]
    ftype, boundary = [0] * nf, [[]] * nf
    for x in range(nf):
        ftype[fnew[x]] = c.ftype[x]
        boundary[fnew[x]] = [(enew[e], s) for e, s in c.boundary[x]]
    return Compact(c.ngens, c.nv, tail, head, label, ftype, boundary)


compacts = st.one_of(
    st.sampled_from(range(400)).map(lambda k: _compact(folded_prefold(k))),
    st.sampled_from(range(139)).map(lambda k: _compact(four_vertex_classes()[k])),
    st.sampled_from(range(122)).map(lambda k: _compact(family_complexes()[k])),
    st.sampled_from(range(538)).map(lambda k: lemma_quotients()[k]),
)


@PROPERTY
@given(compacts, st.booleans(), st.randoms(use_true_random=False))
def test_pruned_bfs_matches_the_exhaustive_loop(c, renumber, rng):
    if renumber:
        c = permuted(c, rng)
    assert _bfs(c) == exhaustive_bfs(c)


def test_canonical_form_of_a_large_cycle_scales():
    # every vertex of C(i) ties on its signature, so each base after the
    # first must be dropped early for the form to stay near-linear
    f = build_C(10_001)
    started = time.perf_counter()
    form = canonical_form(f)
    elapsed = time.perf_counter() - started
    assert form.startswith(b'{"e":[["a",0,')
    assert elapsed < 10.0, f"canonical_form of C(10001) took {elapsed:.2f}s"


numbered_inputs = st.one_of(
    compacts,
    st.sampled_from(range(400)).map(
        lambda k: _compact(random_prefold(random.Random(k)))
    ),
)


@PROPERTY
@given(numbered_inputs, st.booleans(), st.randoms(use_true_random=False))
def test_numbering_rebuilds_the_key_on_both_routes(c, renumber, rng):
    # isomorphic maps cells through vix, eix and fix, so each cell, renamed
    # by them, must give the key's row at its own number
    if renumber:
        c = permuted(c, rng)
    (erows, frows), vix, eix, fix = canonical_key(c)
    assert sorted(vix) == list(range(c.nv))
    assert sorted(eix) == list(range(len(erows)))
    assert sorted(fix) == list(range(len(frows)))
    for e, (g, t, h) in enumerate(zip(c.label, c.tail, c.head)):
        assert erows[eix[e]] == (g, vix[t], vix[h])
    for x, (t, sides) in enumerate(zip(c.ftype, c.boundary)):
        assert frows[fix[x]] == (t, tuple((eix[e], s) for e, s in sides))
