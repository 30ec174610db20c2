import hashlib

import pytest

from foldcx.canonical import canonical_form, isomorphic
from foldcx.cli import main
from foldcx.complexes import (
    ComplexError,
    euler_characteristic,
    id_key,
    free_faces,
    is_immersion,
    presentation_complex,
    validate,
)
from foldcx import families
from foldcx.families import (
    FamilyTag,
    build_C,
    build_D,
    build_family,
    classify,
    family_state,
    kp,
    odd_part,
    parse_family_spec,
)
from foldcx.folding import _FoldState, identify_edges
from foldcx.jsonio import morphism_to_json
from foldcx.presentations import parse_presentation
from helpers import four_vertex_classes, unmerged_view


def occurrence_counts(m):
    counts = {e.id: 0 for e in m.complex.edges}
    for face in m.complex.faces:
        for eid, _ in face.boundary:
            counts[eid] += 1
    return counts


@pytest.mark.parametrize("i", [0, 1, 2, 3, 10, 25])
@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_d_skeleton_counts(i, variant):
    d = build_D(i, variant)
    assert len(d.complex.vertices) == 2 * i + 1
    assert len(d.complex.edges) == 3 * i + 1
    assert len(d.complex.faces) == i + 1
    assert euler_characteristic(d.complex) == 1
    assert validate(d) == []
    assert is_immersion(d)


@pytest.mark.parametrize("i", [1, 3, 5, 9, 25])
@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_c_skeleton_counts(i, variant):
    c = build_C(i, variant)
    assert len(c.complex.vertices) == i
    assert len(c.complex.edges) == 2 * i
    assert len(c.complex.faces) == i + 1
    assert euler_characteristic(c.complex) == 1
    assert free_faces(c.complex) == set()
    assert is_immersion(c)


def test_d_free_faces_by_occurrence_counting():
    # oracle: count side occurrences directly; an edge is free iff exactly 1
    for i in (0, 1, 2, 4):
        d = build_D(i)
        counts = occurrence_counts(d)
        expected = {e for e, n in counts.items() if n == 1}
        assert free_faces(d.complex) == expected
        assert f"b{i}" in expected
        # the high a-edges are only traversed once; the analysis of the
        # closure search must not assume b is the only free label
        assert expected == {f"b{i}"} | {f"a{j}" for j in range(i + 1, 2 * i + 1)}


def test_d0_free_face_is_b0():
    assert free_faces(build_D(0).complex) == {"b0"}


def test_saturation_of_c():
    # every a-edge carries three long-relator sides, every b-edge two; every
    # vertex has degree 4 with one in/out a and one in/out b
    for i in (1, 3, 7, 15):
        c = build_C(i)
        counts = occurrence_counts(c)
        for e in c.complex.edges:
            label = c.edge_labels[e.id]
            long_sides = sum(
                1
                for face in c.complex.faces
                if c.face_types[face.id] == 1
                for eid, _ in face.boundary
                if eid == e.id
            )
            assert long_sides == (3 if label == "a" else 2)
        degree = {v: [0, 0, 0, 0] for v in c.complex.vertices}  # out/in a, out/in b
        for e in c.complex.edges:
            k = 0 if c.edge_labels[e.id] == "a" else 2
            degree[e.tail][k] += 1
            degree[e.head][k + 1] += 1
        assert all(d == [1, 1, 1, 1] for d in degree.values())


def test_c1_equals_target_complex():
    assert isomorphic(build_C(1), kp()) is not None


def test_even_c_delegates_to_odd_part():
    assert canonical_form(build_C(6)) == canonical_form(build_C(3))
    assert canonical_form(build_C(8)) == canonical_form(build_C(1))
    assert canonical_form(build_C(12, "tilde")) == canonical_form(build_C(3, "tilde"))


def test_constructor_agrees_with_identification_route():
    for i in (1, 2, 3, 5, 8):
        via_quotient = identify_edges(build_D(i), f"b{i}", "b0")
        assert isomorphic(via_quotient, build_C(i)) is not None


def test_tilde_reverses_exactly_the_a_edges():
    for build, i in ((build_D, 2), (build_C, 5)):
        plain, mirrored = build(i), build(i, "tilde")
        flipped = {
            e.id: (e.head, e.tail) if plain.edge_labels[e.id] == "a" else (e.tail, e.head)
            for e in plain.complex.edges
        }
        for e in mirrored.complex.edges:
            assert (e.tail, e.head) == flipped[e.id]


def test_mirror_c_is_isomorphic_to_c():
    # the mirror families agree with the plain ones for C (not for D)
    for i in (1, 3, 5, 9):
        assert isomorphic(build_C(i, "tilde"), build_C(i)) is not None
    for i in (1, 2, 3):
        assert isomorphic(build_D(i, "tilde"), build_D(i)) is None
    assert isomorphic(build_D(0, "tilde"), build_D(0)) is not None


def test_odd_part():
    assert odd_part(12) == 3
    assert odd_part(1) == 1
    assert odd_part(10) == 5
    assert odd_part(64) == 1
    with pytest.raises(ComplexError):
        odd_part(0)


def test_classify_families():
    assert str(classify(kp())) == "C:1"
    assert str(classify(build_C(5))) == "C:5"
    assert str(classify(build_D(2))) == "D:2"
    assert str(classify(build_D(2, "tilde"))) == "Dt:2"
    # the mirror C is isomorphic to the plain one, so the plain tag wins
    assert str(classify(build_C(5, "tilde"))) == "C:5"


def test_classify_other():
    other = presentation_complex(parse_presentation("a,b|b,baBAA"))
    cx = other.complex
    from foldcx.complexes import Morphism, TwoComplex

    no_faces = Morphism(
        TwoComplex.make(cx.vertices, cx.edges, []),
        other.presentation,
        dict(other.edge_labels),
        {},
    )
    assert classify(no_faces) is None


def test_classify_wrong_target_rejected():
    torus = presentation_complex(parse_presentation("a,b|abAB"))
    with pytest.raises(ComplexError):
        classify(torus)


def test_family_spec_parsing():
    assert parse_family_spec("D:3") == FamilyTag("D", 3, "standard")
    assert parse_family_spec("Ct:5") == FamilyTag("C", 5, "tilde")
    assert str(parse_family_spec("Dt:3")) == "Dt:3"
    with pytest.raises(ComplexError):
        parse_family_spec("E:3")
    with pytest.raises(ComplexError):
        parse_family_spec("C:0")
    assert classify(build_family(parse_family_spec("C:5"))) == FamilyTag(
        "C", 5, "standard"
    )


@pytest.mark.parametrize(
    "spec", ["D:\u00b2", "D:\u0663", "C:\uff13", "D:", "D:-1"],
    ids=["superscript", "arabic-indic", "fullwidth", "empty", "negative"],
)
def test_family_spec_index_is_ascii_digits(spec):
    # str.isdigit holds for all but the last two, and int() reads the
    # Arabic-Indic and full-width threes as 3
    with pytest.raises(ComplexError, match="must look like 'D:3'"):
        parse_family_spec(spec)


def test_build_rejects_bad_indices():
    with pytest.raises(ComplexError):
        build_D(-1)
    with pytest.raises(ComplexError):
        build_C(0)


def test_family_and_enumeration_json_is_pinned():
    # sha256 of the concatenated JSON, face ids and face order included,
    # the same bytes as when faces were traced by two separate routines
    ms = []
    for variant in ("standard", "tilde"):
        ms += [build_D(i, variant) for i in range(41)]
        ms += [build_C(i, variant) for i in range(1, 40)]
    ms += four_vertex_classes()
    digest = hashlib.sha256()
    for m in ms:
        digest.update(morphism_to_json(m).encode())
    assert len(ms) == 299
    assert digest.hexdigest() == (
        "3e676b99d8ae8a8da09a22bfc24e2248c2d101f45b5225d3ce1003db4bc782b0"
    )


def test_family_state_equals_the_state_of_the_built_morphism():
    # the lemma checkers build their states from the compact form; every
    # library caller gets the Morphism that build_family makes of it
    tags = [
        FamilyTag(family, i, variant)
        for variant in ("standard", "tilde")
        for family, indices in (("D", range(41)), ("C", range(1, 42)))
        for i in indices
    ]
    for tag in tags:
        state = family_state(tag)
        assert unmerged_view(state) == unmerged_view(_FoldState(build_family(tag))), tag
        assert not state.pending, tag


@pytest.mark.parametrize(
    "args, message",
    [
        # n = 4: b0 and b2 both leave v0
        (("D", 2, 4, 4, 3, "standard"), r"D\(2\): skeleton not folded at edge b2"),
        # the skeleton of D(2), which has 3 faces, not the formula's 4
        (("D", 3, 5, 4, 3, "standard"), r"D\(3\) is off the family formula"),
        # D(2) again, folded with 3 faces, but a disc
        (("C", 2, 5, 4, 3, "standard"), r"C\(2\) has free faces"),
    ],
    ids=["not-folded", "face-count", "free-faces"],
)
def test_a_perturbed_formula_raises(args, message):
    with pytest.raises(RuntimeError, match=message):
        families._assemble(*args)


def test_a_face_off_the_formula_raises_on_every_route(monkeypatch, capsys):
    # the formula moves the last long cell's start by one vertex: the
    # traced complex still immerses, but its faces are off the formula,
    # and the Morphism route stops as the lemma route does
    closed_form = families._closed_form

    def moved(i, n, na, nb, variant):
        vids, edges, faces = closed_form(i, n, na, nb, variant)
        t, start = faces[-1]
        return vids, edges, sorted(faces[:-1] + [(t, (start + 1) % n)])

    monkeypatch.setattr(families, "_closed_form", moved)
    with pytest.raises(RuntimeError, match=r"D\(2\) is off the family formula"):
        build_D(2)
    assert main(["family", "D:2"]) == 2
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_the_closed_form_emits_edges_in_shortlex_id_order(variant):
    # the formula writes the edges in the order complexes.Compact numbers
    # them, with no sort, across every digit count of the indices
    indices = [*range(0, 130), 499, 999, 1000, 1001, 9999, 10000]
    for i in indices:
        shapes = [(i, 2 * i + 1, 2 * i, i + 1)] + ([(i, i, i, i)] if i else [])
        for shape in shapes:
            _, edges, _ = families._closed_form(*shape, variant)
            eids = [edge[0] for edge in edges]
            assert eids == sorted(eids, key=id_key), shape
            assert len(eids) == shape[2] + shape[3], shape
