from itertools import combinations, product

import pytest

from foldcx.canonical import canonical_form
from foldcx.complexes import (
    ComplexError,
    Edge,
    Face,
    Morphism,
    TwoComplex,
    _morphism,
    euler_characteristic,
    free_faces,
    immersion_witness,
)
from foldcx.enumeration import (
    BudgetExceeded,
    EnumerationFilter,
    _a_skeletons,
    _count_partial_injections,
    _face_table,
    _groups,
    _holders,
    _joining,
    _partial_injections,
    _positions,
    _skeleton,
    _two_core,
    enumerate_by_types,
    enumerate_immersions,
)
from foldcx.families import TYPE_LONG, TYPE_SHORT, classify, target_presentation
from foldcx.jsonio import morphism_to_json
from helpers import (
    _reference_connected,
    reference_candidate_faces,
    reference_components,
    reference_enumerate_by_types,
    reference_face_table,
)


def brute_force_one_vertex():
    """Independent oracle: every complex on one vertex is a choice of an
    a-loop, a b-loop, and any subset of the directly constructed faces;
    keep whatever validates as a connected no-free-face immersion using
    both relator types."""
    pres = target_presentation()
    found = set()
    for has_a, has_b in product((False, True), repeat=2):
        edges = []
        labels = {}
        if has_a:
            edges.append(Edge("a0", "v0", "v0"))
            labels["a0"] = "a"
        if has_b:
            edges.append(Edge("b0", "v0", "v0"))
            labels["b0"] = "b"
        short = Face("f0", (("b0", 1),)) if has_b else None
        long = (
            Face("f1", (("b0", 1), ("a0", 1), ("b0", -1), ("a0", -1), ("a0", -1)))
            if has_a and has_b
            else None
        )
        for use_short, use_long in product((False, True), repeat=2):
            faces = []
            types = {}
            if use_short:
                if short is None:
                    continue
                faces.append(short)
                types["f0"] = 0
            if use_long:
                if long is None:
                    continue
                faces.append(long)
                types["f1"] = 1
            if not (use_short and use_long):
                continue  # both types required
            m = Morphism(
                TwoComplex.make(["v0"], edges, faces), pres, dict(labels), types
            )
            if immersion_witness(m) is not None:
                continue
            if free_faces(m.complex):
                continue
            found.add(canonical_form(m))
    return found


def test_one_vertex_matches_brute_force():
    classes = enumerate_immersions(EnumerationFilter(1))
    assert {canonical_form(m) for m in classes} == brute_force_one_vertex()
    assert len(classes) == 1
    assert str(classify(classes[0])) == "C:1"


def test_three_vertices_both_types():
    classes = enumerate_immersions(EnumerationFilter(3))
    tags = sorted(str(classify(m)) for m in classes)
    assert tags == ["C:1", "C:3"]


def test_all_outputs_satisfy_the_filter():
    filt = EnumerationFilter(3)
    for m in enumerate_immersions(filt):
        assert immersion_witness(m) is None
        assert m.complex.connected
        assert not free_faces(m.complex)
        assert {m.face_types[f.id] for f in m.complex.faces} == {0, 1}


def test_exact_type_semantics():
    long_only = enumerate_immersions(
        EnumerationFilter(2, required_types=frozenset({1}))
    )
    assert long_only, "long-relator-only immersions exist"
    for m in long_only:
        assert {m.face_types[f.id] for f in m.complex.faces} == {1}
    short_only = enumerate_immersions(
        EnumerationFilter(3, required_types=frozenset({0}))
    )
    # a lone short face always leaves its edge free, so nothing survives
    assert short_only == []


def test_faceless_enumeration():
    bare = enumerate_immersions(
        EnumerationFilter(2, required_types=frozenset())
    )
    assert bare
    for m in bare:
        assert m.complex.faces == ()
        assert m.complex.connected


def test_one_vertex_long_only_is_chi_zero():
    classes = enumerate_immersions(
        EnumerationFilter(1, required_types=frozenset({1}))
    )
    assert len(classes) == 1
    assert euler_characteristic(classes[0].complex) == 0


def test_free_faces_allowed_widens_the_set():
    # the first disc with a free face needs three vertices
    strict = enumerate_immersions(EnumerationFilter(3))
    loose = enumerate_immersions(EnumerationFilter(3, require_no_free_faces=False))
    assert len(loose) > len(strict)
    loose_forms = {canonical_form(m) for m in loose}
    from foldcx.families import build_D

    assert canonical_form(build_D(1)) in loose_forms


def test_disconnected_allowed_widens_the_set():
    connected = enumerate_immersions(
        EnumerationFilter(2, required_types=frozenset())
    )
    anything = enumerate_immersions(
        EnumerationFilter(2, require_connected=False, required_types=frozenset())
    )
    assert len(anything) > len(connected)


def test_duplicates_never_returned():
    classes = enumerate_immersions(EnumerationFilter(4))
    forms = [canonical_form(m) for m in classes]
    assert len(forms) == len(set(forms))
    assert forms == sorted(forms)


def test_determinism():
    a = enumerate_immersions(EnumerationFilter(3))
    b = enumerate_immersions(EnumerationFilter(3))
    assert [canonical_form(m) for m in a] == [canonical_form(m) for m in b]


def test_budget_exceeded_raises():
    with pytest.raises(BudgetExceeded):
        enumerate_immersions(EnumerationFilter(4), max_nodes=10)


def test_partial_injections_are_counted_in_advance():
    for n in range(1, 6):
        assert _count_partial_injections(n) == len(_partial_injections(n))


def test_bad_filter_rejected():
    with pytest.raises(ComplexError):
        EnumerationFilter(0)
    with pytest.raises(ComplexError):
        EnumerationFilter(2, required_types=frozenset({7}))


BOTH = frozenset({TYPE_SHORT, TYPE_LONG})
SHORT = frozenset({TYPE_SHORT})
LONG = frozenset({TYPE_LONG})
NO_FACES = frozenset()


def as_json(classes):
    return [morphism_to_json(m) for m in classes]


def test_budget_overflow_raises_before_the_pairs_are_built(monkeypatch):
    # every a-skeleton charges every b-skeleton, so at 7 vertices the
    # charge is known to overflow before any b-skeleton is listed
    listed, built = _partial_injections, []

    def refusing(n):
        assert n < 7, "the b-skeletons on 7 vertices were built"
        built.append(n)
        return listed(n)

    monkeypatch.setattr("foldcx.enumeration._partial_injections", refusing)
    with pytest.raises(BudgetExceeded) as raised:
        enumerate_by_types(7, [BOTH], max_nodes=2_000_000)
    # the count reached: 926,647 nodes through 6 vertices, then the pairs
    # on 7 vertices (14,401,420) in one charge
    assert (raised.value.nodes, raised.value.budget) == (15_328_067, 2_000_000)
    assert built == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("require_connected", [True, False])
@pytest.mark.parametrize("require_no_free_faces", [True, False])
def test_walk_matches_the_reference_at_four_vertices(
    require_connected, require_no_free_faces
):
    # the same classes, and byte for byte the same first representatives;
    # a walk whose type sets all need a face skips b-skeletons without
    # faces, one that asks for no faces visits every pair
    flags = (require_connected, require_no_free_faces)
    expected = reference_enumerate_by_types(4, [BOTH, SHORT, LONG, NO_FACES], *flags)
    for type_sets in ([BOTH, SHORT, LONG], [NO_FACES]):
        found = enumerate_by_types(4, type_sets, *flags)
        for types in type_sets:
            assert as_json(found[types]) == as_json(expected[types])


def test_walk_matches_the_reference_at_five_vertices():
    type_sets = [BOTH, SHORT, LONG]
    expected = reference_enumerate_by_types(5, type_sets)
    found = enumerate_by_types(5, type_sets)
    for types in type_sets:
        assert as_json(found[types]) == as_json(expected[types])


def test_positions_reads_the_set_bits_in_order():
    masks = (0, 1, 0b1011_0000_0001, (1 << 200) | (1 << 64) | 0xFF, (1 << 999) - 1)
    for mask in masks:
        assert _positions(mask) == [j for j in range(mask.bit_length()) if mask >> j & 1]


def test_face_table_matches_the_reference():
    # forcing the last b-step keeps the traces and their order, for every
    # partial injection as sigma_a, not only the a-skeletons
    for n in range(1, 6):
        for sigma_a in _partial_injections(n):
            assert _face_table(n, sigma_a) == reference_face_table(n, sigma_a)


def test_skeleton_numbers_edges_in_shortlex_order():
    # from 11 vertices on, a10 sorts after b9: the a-edges no longer come
    # first, and each edge index is placed where its id sorts
    skeleton, eids, place = _skeleton(12, {11: 0, 1: 2}, {10: 3, 0: 0})
    assert eids == ["a1", "b0", "a11", "b10"]
    assert (skeleton.tail, skeleton.head, skeleton.label) == ([1, 0, 11, 10], [2, 0, 0, 3], [0, 1, 0, 1])
    assert place == {1: 0, 12: 1, 11: 2, 12 + 10 * 12 + 3: 3}


def _candidate(n, sigma_a, sigma_b, chosen) -> Morphism:
    """The Morphism of a face subset by the enumeration's compact route:
    the pair's skeleton, the chosen traces as faces, then _morphism."""
    pres = target_presentation()
    skeleton, eids, place = _skeleton(n, sigma_a, sigma_b)
    c = skeleton._replace(
        ftype=[face.rix for face in chosen],
        boundary=[
            [(place[e], sign) for e, (_, sign) in zip(face.edges, pres.relators[face.rix])]
            for face in chosen
        ],
    )
    ids = [f"v{k}" for k in range(n)], eids, [f"f{k}" for k in range(len(chosen))]
    return _morphism(c, pres, ids)


def test_face_table_gives_the_closed_traces():
    # for every skeleton pair with at most 4 vertices, the faces read off
    # the table are the closed traces of trace_relator, in the same order,
    # and the compact route names each side's edge by its index
    for n in range(1, 5):
        b_skeletons = _partial_injections(n)
        holding = _holders(n, b_skeletons)
        everything = (1 << len(b_skeletons)) - 1
        for sigma_a, _ in _a_skeletons(n):
            table = _face_table(n, sigma_a)
            groups = _groups(n, table, holding, everything)
            keys = {j: key for key, mask in groups.items() for j in _positions(mask)}
            assert sorted(keys) == list(range(len(b_skeletons)))
            for j, sigma_b in enumerate(b_skeletons):
                built = _candidate(n, sigma_a, sigma_b, [table[p] for p in keys[j]])
                faces = [
                    (built.face_types[face.id], face.boundary)
                    for face in built.complex.faces
                ]
                assert faces == reference_candidate_faces(sigma_a, sigma_b)


def test_two_core_holds_every_face_set_without_free_faces():
    # the completeness argument of the 2-core, checked on every face subset
    # of every skeleton pair with at most 3 vertices
    checked = 0
    for n in range(1, 4):
        b_skeletons = _partial_injections(n)
        holding = _holders(n, b_skeletons)
        everything = (1 << len(b_skeletons)) - 1
        for sigma_a, _ in _a_skeletons(n):
            table = _face_table(n, sigma_a)
            table_core = _two_core(table)
            for key in _groups(n, table, holding, everything):
                faces = [table[p] for p in key]
                core = _two_core(faces)
                assert all(face in table_core for face in core)
                for size in range(1, len(faces) + 1):
                    for chosen in combinations(faces, size):
                        sides = {}
                        for face in chosen:
                            for e in face.edges:
                                sides[e] = sides.get(e, 0) + 1
                        if 1 not in sides.values():
                            checked += 1
                            assert all(face in core for face in chosen)
    assert checked > 0


def test_groups_partition_the_kept_pairs():
    # every kept position lies in exactly one group, and no group is empty,
    # for every sigma_a as a-skeleton, with and without the connectivity
    # filter, and on the cored table as the walk reads it
    for n in range(1, 5):
        b_skeletons = _partial_injections(n)
        holding = _holders(n, b_skeletons)
        everything = (1 << len(b_skeletons)) - 1
        for sigma_a in b_skeletons:
            a_part = reference_components(n, sigma_a)
            connected = _joining(a_part, holding, everything)
            table = _face_table(n, sigma_a)
            for kept in (everything, connected):
                for faces in (table, _two_core(table)):
                    groups = _groups(n, faces, holding, kept)
                    masks = list(groups.values())
                    assert all(masks)
                    positions = sorted(j for mask in masks for j in _positions(mask))
                    assert positions == _positions(kept)


def test_a_skeletons_carry_their_components():
    # the a-partition that comes with each a-skeleton is the components of
    # its a-edges, each vertex labelled by the least vertex of its block
    for n in range(1, 7):
        for sigma_a, a_part in _a_skeletons(n):
            assert a_part == reference_components(n, sigma_a)


def test_connected_pairs_are_chosen_by_partition():
    # for every sigma_a, not only the a-skeletons, the b-skeletons kept are
    # exactly those that make a connected pair
    for n in range(1, 5):
        b_skeletons = _partial_injections(n)
        holding = _holders(n, b_skeletons)
        everything = (1 << len(b_skeletons)) - 1
        for sigma_a in b_skeletons:
            kept = _joining(reference_components(n, sigma_a), holding, everything)
            expected = [
                j
                for j, sigma_b in enumerate(b_skeletons)
                if _reference_connected(n, sigma_a, sigma_b)
            ]
            assert _positions(kept) == expected
