import random
from collections import Counter
from fractions import Fraction

import pytest

from foldcx.complexes import (
    ComplexError,
    Edge,
    Face,
    Morphism,
    TwoComplex,
    average_curvature,
    collapse_free_face,
    euler_characteristic,
    free_faces,
    immersion_witness,
    is_immersion,
    presentation_complex,
    trace_relator,
    validate,
)
from foldcx.enumeration import EnumerationFilter, _partial_injections, enumerate_immersions
from foldcx.families import build_C, build_D, kp, target_presentation
from foldcx.presentations import parse_presentation, parse_word
from helpers import folded_prefold, four_vertex_classes, random_prefold, reference_immersion_witness


def test_presentation_complex_of_target():
    k = kp()
    assert len(k.complex.vertices) == 1
    assert len(k.complex.edges) == 2
    assert len(k.complex.faces) == 2
    assert validate(k) == []
    assert is_immersion(k)


def test_presentation_complex_circle_and_torus():
    circle = presentation_complex(parse_presentation("a|"))
    assert (len(circle.complex.vertices), len(circle.complex.edges)) == (1, 1)
    assert circle.complex.faces == ()
    torus = presentation_complex(parse_presentation("a,b|abAB"))
    assert (len(torus.complex.edges), len(torus.complex.faces)) == (2, 1)
    assert len(torus.complex.faces[0].boundary) == 4
    assert is_immersion(torus)


def test_euler_characteristic_direct_counts():
    assert euler_characteristic(kp().complex) == 1
    point = TwoComplex.make(["v0"], [], [])
    assert euler_characteristic(point) == 1


def test_average_curvature_exact():
    assert average_curvature(kp().complex) == Fraction(1, 2)
    with pytest.raises(ComplexError):
        average_curvature(TwoComplex.make(["v0"], [], []))


def test_average_curvature_of_families():
    from foldcx.families import build_C, build_D

    # chi 1 with four faces for the closed complex on three vertices
    assert average_curvature(build_C(3).complex) == Fraction(1, 4)
    # a one-face disc has curvature 1
    assert average_curvature(build_D(0).complex) == Fraction(1)


def test_kappa_times_area_equals_chi():
    k = kp().complex
    assert average_curvature(k) * len(k.faces) == euler_characteristic(k)


def test_free_faces_of_target_empty():
    # b occurs once in the short relator and twice in the long one; a occurs
    # three times in the long relator: every count exceeds one
    assert free_faces(kp().complex) == set()


def test_collapse_free_face():
    # a disc: one vertex, one loop, one short face
    disc = TwoComplex.make(
        ["v0"], [Edge("b0", "v0", "v0")], [Face("f0", (("b0", 1),))]
    )
    assert free_faces(disc) == {"b0"}
    collapsed = collapse_free_face(disc, "b0")
    assert collapsed.vertices == ("v0",)
    assert collapsed.edges == () and collapsed.faces == ()
    assert euler_characteristic(collapsed) == euler_characteristic(disc)
    with pytest.raises(ComplexError, match="not a free face"):
        collapse_free_face(disc, "missing")


def test_validate_reports_length_mismatch():
    pres = target_presentation()
    cx = TwoComplex.make(
        ["v0"],
        [Edge("a", "v0", "v0"), Edge("b", "v0", "v0")],
        [Face("f0", (("b", 1), ("b", 1)))],
    )
    bad = Morphism(cx, pres, {"a": "a", "b": "b"}, {"f0": 0})
    assert any("length mismatch" in v for v in validate(bad))


def test_validate_reports_undeclared_generator():
    pres = target_presentation()
    cx = TwoComplex.make(["v0"], [Edge("z", "v0", "v0")], [])
    bad = Morphism(cx, pres, {"z": "q"}, {})
    assert any("undeclared" in v for v in validate(bad))


def test_validate_reports_wrong_spelling():
    pres = target_presentation()
    cx = TwoComplex.make(["v0"], [Edge("a", "v0", "v0")], [Face("f0", (("a", 1),))])
    bad = Morphism(cx, pres, {"a": "a"}, {"f0": 0})
    assert any("relator has" in v for v in validate(bad))


def test_unclosed_boundary_rejected():
    with pytest.raises(ComplexError, match="closed edge path"):
        TwoComplex.make(
            ["v0", "v1"],
            [Edge("a0", "v0", "v1")],
            [Face("f0", (("a0", 1),))],
        )


def test_duplicate_vertex_rejected():
    with pytest.raises(ComplexError, match="duplicate vertex id"):
        TwoComplex.make(["v0", "v0"], [], [])


def test_immersion_witness_vertex_collision():
    pres = target_presentation()
    cx = TwoComplex.make(
        ["v0", "v1"],
        [Edge("a0", "v0", "v0"), Edge("a1", "v0", "v1")],
        [],
    )
    two_out = Morphism(cx, pres, {"a0": "a", "a1": "a"}, {})
    witness = immersion_witness(two_out)
    assert witness is not None and witness.kind == "vertex" and witness.cell == "v0"


def test_immersion_witness_slot_collision():
    # two short faces on one b-loop occupy the same side slot
    pres = target_presentation()
    cx = TwoComplex.make(
        ["v0"],
        [Edge("b0", "v0", "v0")],
        [Face("f0", (("b0", 1),)), Face("f1", (("b0", 1),))],
    )
    doubled = Morphism(cx, pres, {"b0": "b"}, {"f0": 0, "f1": 0})
    witness = immersion_witness(doubled)
    assert witness is not None and witness.kind == "edge" and witness.cell == "b0"


def test_immersion_witness_rejects_invalid():
    pres = target_presentation()
    cx = TwoComplex.make(["v0"], [Edge("z", "v0", "v0")], [])
    bad = Morphism(cx, pres, {"z": "q"}, {})
    with pytest.raises(ComplexError):
        immersion_witness(bad)


def test_presentation_complex_is_always_an_immersion():
    for text in ("a,b|b,baBAA", "a|", "a,b|abAB", "a,b,c|abc", "a,b|aba"):
        assert is_immersion(presentation_complex(parse_presentation(text)))


def test_morphism_rejects_proper_power_target():
    from foldcx.presentations import Presentation

    square = Presentation(("a",), ((("a", 1), ("a", 1)),))
    cx = TwoComplex.make(["v0"], [], [])
    with pytest.raises(ComplexError, match="proper power"):
        Morphism(cx, square, {}, {})


def skeleton_maps(f: Morphism):
    """forward/backward maps per generator and the edge id at (label, tail)."""
    forward = {g: {} for g in f.presentation.generators}
    backward = {g: {} for g in f.presentation.generators}
    edge_at = {}
    for e in f.complex.edges:
        gen = f.edge_labels[e.id]
        forward[gen][e.tail] = e.head
        backward[gen][e.head] = e.tail
        edge_at[gen, e.tail] = e.id
    return forward, backward, edge_at


def traced_sides(f: Morphism, word, boundary):
    """The trace of word from the vertex where boundary's first side starts."""
    forward, backward, edge_at = skeleton_maps(f)
    eid, sign = boundary[0]
    e = f.complex.edge_by_id[eid]
    tails = trace_relator(word, forward, backward, e.tail if sign > 0 else e.head)
    if tails is None:
        return None
    return tuple((edge_at[g, t], s) for (g, s), t in zip(word, tails))


def test_trace_relator_reads_either_sign_and_must_close():
    forward = {"a": {0: 1}, "b": {2: 1}}
    backward = {"a": {1: 0}, "b": {1: 2}}
    word = parse_word("aB", ("a", "b"))
    assert trace_relator(word, forward, backward, 0) is None  # ends at 2
    forward["b"], backward["b"] = {1: 0}, {0: 1}
    assert trace_relator(parse_word("ab", ("a", "b")), forward, backward, 0) == [0, 1]
    assert trace_relator(parse_word("BA", ("a", "b")), forward, backward, 0) == [1, 0]


def test_trace_relator_stops_at_a_missing_edge():
    forward = {"a": {0: 1}, "b": {}}
    backward = {"a": {1: 0}, "b": {}}
    assert trace_relator(parse_word("ab", ("a", "b")), forward, backward, 0) is None
    assert trace_relator(parse_word("A", ("a", "b")), forward, backward, 0) is None


def test_trace_relator_starting_with_an_inverse_reads_the_rotated_face():
    # every rotation of baBAA that begins with B or A, traced from the vertex
    # where that position starts, reads the face's boundary rotated
    long = target_presentation().relators[1]
    for f in (build_D(3), build_D(3, "tilde"), build_C(5), build_C(5, "tilde")):
        for face in f.complex.faces:
            if f.face_types[face.id] != 1:
                continue
            for r in (2, 3, 4):
                assert long[r][1] < 0
                rotated = face.boundary[r:] + face.boundary[:r]
                assert traced_sides(f, long[r:] + long[:r], rotated) == rotated


def test_closed_traces_of_b_are_the_b_loops():
    b = target_presentation().relators[0]
    for sigma_b in _partial_injections(3):
        forward = {"a": {}, "b": sigma_b}
        backward = {"a": {}, "b": {v: u for u, v in sigma_b.items()}}
        closed = {u for u in range(3) if trace_relator(b, forward, backward, u)}
        assert closed == {u for u, v in sigma_b.items() if u == v}


def test_every_face_is_the_trace_of_its_relator():
    # these faces come from presentation_complex and from folding, not from
    # the tracer
    for f in [kp()] + [folded_prefold(seed) for seed in range(50)]:
        for face in f.complex.faces:
            word = f.presentation.relators[f.face_types[face.id]]
            assert traced_sides(f, word, face.boundary) == face.boundary


def doubled_face(f: Morphism, k: int) -> Morphism:
    """f with a copy of its face k, of the same type, beside it."""
    cx, face = f.complex, f.complex.faces[k]
    twin = Face(face.id + "d", face.boundary)
    return Morphism(
        TwoComplex.make(cx.vertices, cx.edges, cx.faces + (twin,)),
        f.presentation,
        dict(f.edge_labels),
        f.face_types | {twin.id: f.face_types[face.id]},
    )


def test_immersion_witness_matches_the_reference_walk():
    # the check on the compact form keys edge links by (relator, first
    # edge); in a folded skeleton that finds the first collision the walk
    # over every side finds, and it names it alike
    corpus = [random_prefold(random.Random(seed)) for seed in range(400)]
    corpus += [folded_prefold(seed) for seed in range(400)]
    corpus += [build_D(i) for i in range(12)] + [build_D(i, "tilde") for i in range(6)]
    corpus += [build_C(i) for i in range(1, 12)]
    corpus += four_vertex_classes() + enumerate_immersions(EnumerationFilter(3, False, False))
    corpus += [
        presentation_complex(parse_presentation(text))
        for text in ("a,b|b,baBAA", "a|", "a,b|abAB", "a,b,c|abc", "a,b|aba")
    ]
    corpus += [
        doubled_face(f, k % min(3, len(f.complex.faces)))
        for k, f in enumerate(corpus[:200] + corpus[-60:])
        if f.complex.faces
    ]
    kinds = Counter()
    for f in corpus:
        witness = immersion_witness(f)
        assert witness == reference_immersion_witness(f)
        kinds[witness and witness.kind] += 1
    assert kinds.keys() == {"vertex", "edge", None}
