import hashlib
import json
import random
import re
import sys
import time
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from foldcx.canonical import canonical_form
from foldcx.complexes import (
    ComplexError,
    Edge,
    Morphism,
    TwoComplex,
    euler_characteristic,
)
from foldcx.enumeration import (
    BudgetExceeded,
    EnumerationFilter,
    enumerate_by_types,
    enumerate_immersions,
)
from foldcx import canonical, cli, families, folding, verify
from foldcx.families import (
    TYPE_LONG,
    TYPE_SHORT,
    FamilyTag,
    build_C,
    build_D,
    build_family,
    classify,
    family_state,
    odd_part,
    parse_family_spec,
)
from foldcx.folding import (
    _coupling_base,
    _FoldState,
    _identify_edges_state,
    _identify_vertices_state,
    _immersion_state,
    couple,
    identify_edges,
    identify_vertices,
)
from foldcx.jsonio import morphism_to_json
from foldcx.verify import (
    _classify_state,
    _row_fields,
    _tag_str,
    check_lemma_coupling,
    check_lemma_edge_identification,
    check_lemma_vertex_identification,
    closure_search,
    verify_main_theorem,
)
from helpers import (
    disjoint_union,
    family_map,
    family_numbers,
    full_branch_closure,
    map_fibres,
    map_target,
    quotient_vertices,
    scrambled,
)


def test_closure_search_from_the_smallest_disc():
    result = closure_search(build_D(0), 2)
    tags = {str(classify(m)) for m, _ in result.results}
    assert "C:1" in tags


def test_closure_requires_free_faces():
    with pytest.raises(ComplexError, match="free faces"):
        closure_search(build_C(3), 6)


def test_closure_requires_an_immersion():
    # two b-loops at one vertex: free faces, but no immersion
    pinched = quotient_vertices(
        disjoint_union([build_D(0), build_D(0)]), [("v0.0", "v0.1")]
    )
    with pytest.raises(ComplexError, match="expected an immersion"):
        closure_search(pinched, 4)


def test_closure_results_have_no_free_faces_and_record_moves():
    result = closure_search(build_D(1), 4)
    assert result.results
    from foldcx.complexes import free_faces

    for m, moves in result.results:
        assert not free_faces(m.complex)
        assert moves  # every result is reached by at least one move
        assert all(move[0] in ("identify-edges", "couple") for move in moves)
    assert result.max_depth >= 1
    assert result.explored >= 1


@pytest.mark.parametrize("spec, max_faces", [("D:1", 7), ("Dt:1", 7), ("D:0", 5)])
def test_closure_move_paths_replay(spec, max_faces):
    # each recorded path, applied to the start with the public moves,
    # reaches exactly the result it is recorded with
    start = build_family(parse_family_spec(spec))
    result = closure_search(start, max_faces)
    assert result.results
    for m, moves in result.results:
        current = start
        for move in moves:
            if move[0] == "identify-edges":
                current = identify_edges(current, *move[1:])
            else:
                current = couple(current, *move[1:])
        assert isinstance(current, Morphism)
        assert current == m


def test_closure_search_counts_are_pinned():
    # pins the one-edge rule: a change to the choice of branching edge or
    # to its successors would change these counts
    result = closure_search(build_D(1), 4)
    assert (result.explored, result.pruned, result.max_depth) == (3, 1, 2)
    assert (result.folds, result.duplicates) == (12, 7)
    assert len(result.results) == 2


def test_closure_search_from_a_disconnected_start():
    # every state of this search is disconnected, so each one is keyed by
    # the refinement route; a key that merged non-isomorphic states or split
    # isomorphic ones would change these counts
    result = closure_search(disjoint_union([build_D(1), build_D(0)]), 5)
    assert (result.explored, result.pruned, result.max_depth) == (16, 14, 3)
    assert (result.folds, result.duplicates) == (83, 51)
    assert len(result.results) == 3


def closure_counts(result) -> tuple:
    return (
        result.explored,
        result.folds,
        result.duplicates,
        result.pruned,
        result.max_depth,
        len(result.results),
    )


@pytest.mark.parametrize(
    "start",
    [build_D(1), build_family(parse_family_spec("Dt:1")), couple(build_D(0), 1, 2, "b0")],
    ids=["D:1", "Dt:1", "couple"],
)
def test_closure_counts_do_not_depend_on_cell_names(start):
    # the branching edge is chosen by canonical number, not by id, so
    # renamings that reorder the ids in shortlex order do the same work
    starts = [start] + [scrambled(start, random.Random(seed)) for seed in range(5)]
    counts = {closure_counts(closure_search(s, 9)) for s in starts}
    assert counts == {(8, 52, 40, 1, 7, 4)}


# sha256 prefixes of the recorded move sequences at 9 faces, taken while
# each node was a Morphism whose identify-edges partners were sorted by id:
# taking the partners in edge-index order keeps every move.  From D:2 the
# order of the partners decides which of two isomorphic successors is kept
CLOSURE_MOVES_AT_NINE = {
    "D:1": "5593741d83e14d27",
    "D:2": "1e879dd6855fd95c",
    "Dt:1": "4594726c65985b57",
    "couple": "572743dc1a40ebab",
    "scrambled": "2bbf3b408b0b7384",
}


CLOSURE_STARTS = {
    "D:1": lambda: build_D(1),
    "D:2": lambda: build_D(2),
    "Dt:1": lambda: build_D(1, "tilde"),
    "couple": lambda: couple(build_D(0), 1, 2, "b0"),
    "scrambled": lambda: scrambled(build_D(1), random.Random(0)),
}


@pytest.mark.parametrize("name", CLOSURE_STARTS)
def test_closure_moves_are_pinned(name):
    moves = [list(path) for _, path in closure_search(CLOSURE_STARTS[name](), 9).results]
    digest = hashlib.sha256(json.dumps(moves).encode()).hexdigest()[:16]
    assert digest == CLOSURE_MOVES_AT_NINE[name]


@pytest.mark.parametrize("max_faces", [0, -1])
def test_closure_rejects_a_face_budget_below_one(monkeypatch, max_faces):
    # rejected before any work, as every other search budget is
    def refuse(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(verify, "_immersion_state", refuse)
    with pytest.raises(ComplexError, match="max_faces must be at least 1"):
        closure_search(build_D(1), max_faces)


def test_a_closure_node_that_does_not_immerse_raises(monkeypatch):
    # a successor whose edges' tails are joined and never folded has two
    # edges of one label leaving one vertex; the check on each new node
    # catches it before any result is finished
    def unrun(base, e1, e2):
        state = base.copy()
        state.merge_vertices(base.tail[base.edge_ix[e1]], base.tail[base.edge_ix[e2]])
        return state

    def refuse(state):
        raise AssertionError("a result was finished")

    monkeypatch.setattr(verify, "_identify_edges_state", unrun)
    monkeypatch.setattr(verify, "_finish", refuse)
    with pytest.raises(RuntimeError, match="folding ended at a non-immersion: skeleton not folded"):
        closure_search(build_D(1), 2)


def test_searches_make_one_morphism_per_result_or_class(monkeypatch):
    # closure nodes are fold states and enumeration candidates are keyed
    # on their compact form, so a complex is made only for what is returned
    start = build_D(1)
    calls = []
    make = TwoComplex.make
    monkeypatch.setattr(TwoComplex, "make", staticmethod(lambda *args: calls.append(1) or make(*args)))
    assert len(closure_search(start, 16).results) == len(calls) == 8
    calls.clear()
    classes = enumerate_by_types(
        5, [frozenset({TYPE_SHORT, TYPE_LONG}), frozenset({TYPE_SHORT}), frozenset({TYPE_LONG})]
    )
    assert sum(map(len, classes.values())) == len(calls) == 10


def test_closure_frontier_at_forty_eight_faces():
    result = closure_search(build_D(1), 48)
    assert sorted(str(classify(m)) for m, _ in result.results) == sorted(
        f"C:{i}" for i in range(1, 48, 2)
    )
    assert (result.explored, result.folds) == (47, 1222)


def test_full_branch_reference_counts_are_pinned():
    # pins the duplicate check: a key that merged non-isomorphic states or
    # split isomorphic ones would change these counts
    result = full_branch_closure(build_D(1), 4)
    assert (result.explored, result.pruned, result.max_depth) == (32, 188, 3)
    assert len(result.results) == 2


@pytest.mark.parametrize(
    "index, variant, max_faces",
    [(1, "standard", 5), (1, "tilde", 5), (0, "standard", 4)],
)
def test_one_edge_closure_matches_full_branch_reference(index, variant, max_faces):
    start = build_D(index, variant)
    one_edge = closure_search(start, max_faces)
    reference = full_branch_closure(start, max_faces)
    assert [canonical_form(m) for m, _ in one_edge.results] == [
        canonical_form(m) for m, _ in reference.results
    ]
    assert one_edge.folds < reference.folds


def test_closure_matches_enumeration_at_matching_size():
    result = closure_search(build_D(1), 4)
    closure_forms = sorted(canonical_form(m) for m, _ in result.results)
    enum_forms = sorted(
        canonical_form(m) for m in enumerate_immersions(EnumerationFilter(3))
    )
    assert closure_forms == enum_forms


@pytest.fixture(scope="module")
def six_vertex_forms():
    return sorted(canonical_form(m) for m in enumerate_immersions(EnumerationFilter(6)))


@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_closure_matches_enumeration_at_seven_faces(variant, six_vertex_forms):
    result = closure_search(build_D(1, variant), 7)
    closure_forms = sorted(canonical_form(m) for m, _ in result.results)
    assert closure_forms == six_vertex_forms


@pytest.fixture(scope="module")
def seven_vertex_classes():
    # the 15,327,890 skeleton pairs at up to 7 vertices alone exceed the
    # default budget
    return enumerate_immersions(EnumerationFilter(7), max_nodes=20_000_000)


@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_closure_matches_enumeration_at_eight_faces(variant, seven_vertex_classes):
    result = closure_search(build_D(1, variant), 8)
    closure_forms = sorted(canonical_form(m) for m, _ in result.results)
    assert closure_forms == [canonical_form(m) for m in seven_vertex_classes]
    tags = [str(classify(m)) for m in seven_vertex_classes]
    assert sorted(tags) == ["C:1", "C:3", "C:5", "C:7"]


def test_closure_reaches_every_c_up_to_fifteen():
    result = closure_search(build_D(1), 16)
    forms = sorted(canonical_form(m) for m, _ in result.results)
    assert forms == sorted(canonical_form(build_C(i)) for i in range(1, 16, 2))


def test_vertex_identification_checker():
    report = check_lemma_vertex_identification(5)
    assert report.passed
    # C(3) has three vertex pairs, C(5) has ten
    assert len(report.rows) == 13
    assert all(row.classification.startswith("C:") for row in report.rows)
    for row in report.rows:
        assert row.chi == 1


def test_vertex_identification_vacuous_below_three():
    report = check_lemma_vertex_identification(1)
    assert report.passed
    assert report.rows == []


def test_edge_identification_checker():
    report = check_lemma_edge_identification(4)
    assert report.passed
    # both variants, sum over i<=4 of i rows each
    assert len(report.rows) == 2 * (1 + 2 + 3 + 4)


def test_coupling_checker():
    report = check_lemma_coupling(4)
    assert report.passed
    # three couplings per index (short at 0, long at 0 and at 2)
    assert len(report.rows) == 3 * 5
    assert "free_edge_labels_of_D" in report.meta
    assert report.meta["free_edge_labels_of_D"][0] == ["b"]
    assert report.meta["free_edge_labels_of_D"][2] == ["a", "b"]


def test_coupling_outcomes_are_the_predicted_ones():
    report = check_lemma_coupling(3)
    outcomes = {row.description: row.classification for row in report.rows}
    assert outcomes["D:0 couple type 1 position 2 at b0"] == "D:1"
    assert outcomes["D:0 couple type 1 position 0 at b0"] == "Dt:1"
    assert outcomes["D:2 couple type 0 position 0 at b2"] == "C:1"
    assert outcomes["D:3 couple type 0 position 0 at b3"] == "C:3"
    assert outcomes["D:3 couple type 1 position 2 at b3"] == "D:4"
    assert outcomes["D:3 couple type 1 position 0 at b3"] == "D:3"


COUPLINGS_AT_B = ((0, 0), (1, 0), (1, 2))  # (type, position) of each letter b


def by_morphism(result: Morphism) -> tuple:
    return classify(result), euler_characteristic(result.complex)


def test_checker_rows_match_the_morphism_route():
    # the checkers classify the compact quotient of a folded copy of one
    # state per input; the public moves build and immersion-check the quotient
    expected = {
        check_lemma_vertex_identification: [
            by_morphism(identify_vertices(c, u, v))
            for c in map(build_C, range(3, 12, 2))
            for u, v in combinations(c.complex.vertices, 2)
        ],
        check_lemma_edge_identification: [
            by_morphism(identify_edges(build_D(i, variant), f"b{i}", f"b{j}"))
            for variant in ("standard", "tilde")
            for i in range(1, 9)
            for j in range(i)
        ],
        check_lemma_coupling: [
            by_morphism(couple(build_D(i), t, p, f"b{i}"))
            for i in range(9)
            for t, p in COUPLINGS_AT_B
        ],
    }
    for checker, max_i in (
        (check_lemma_vertex_identification, 11),
        (check_lemma_edge_identification, 8),
        (check_lemma_coupling, 8),
    ):
        rows = [(row.classification, row.chi) for row in checker(max_i).rows]
        assert rows == [(_tag_str(tag), chi) for tag, chi in expected[checker]]


def test_classify_state_matches_the_morphism_route_in_both_variants():
    unmatched = 0
    for variant in ("standard", "tilde"):
        for c in (build_C(i, variant) for i in range(3, 12, 2)):
            base = _immersion_state(c)
            for u, v in combinations(c.complex.vertices, 2):
                state = _identify_vertices_state(base, u, v)
                assert _classify_state(state) == by_morphism(identify_vertices(c, u, v))
        # every move on D, not only the checkers': moves at a-edges also
        # reach quotients outside both families
        for d in (build_D(i, variant) for i in range(1, 9)):
            base = _immersion_state(d)
            labels = d.edge_labels
            for e1, e2 in combinations(sorted(labels), 2):
                if labels[e1] == labels[e2]:
                    found = _classify_state(_identify_edges_state(base, e1, e2))
                    assert found == by_morphism(identify_edges(d, e1, e2))
                    unmatched += found[0] is None
            for t, word in enumerate(d.presentation.relators):
                glued, cell = _coupling_base(base, t)
                for p, (gen, _) in enumerate(word):
                    for e in sorted(e for e in labels if labels[e] == gen):
                        found = _classify_state(_identify_edges_state(glued, cell[p], e))
                        assert found == by_morphism(couple(d, t, p, e))
                        unmatched += found[0] is None
    assert unmatched  # some moves match no family and take the immersion check


def test_classify_state_of_an_unfolded_state_raises():
    # merged but never run: the compact classifier finds no family, and the
    # fallback refuses the non-immersion
    state = _immersion_state(build_C(5)).copy()
    state.merge_vertices(0, 1)
    with pytest.raises(RuntimeError, match="folding ended at a non-immersion"):
        _classify_state(state)


def test_edge_identification_checker_scales():
    started = time.perf_counter()
    report = check_lemma_edge_identification(63)
    elapsed = time.perf_counter() - started
    assert report.passed and len(report.rows) == 2 * 63 * 64 // 2
    assert elapsed < 10.0, f"check_lemma_edge_identification(63) took {elapsed:.2f}s"


def test_reports_deterministic():
    a = check_lemma_vertex_identification(7)
    b = check_lemma_vertex_identification(7)
    assert a.to_json() == b.to_json()


def test_report_json_excludes_timing_by_default():
    report = check_lemma_coupling(2)
    doc = json.loads(report.to_json())
    assert "wall_clock_s" not in doc
    timed = json.loads(report.to_json(include_timing=True))
    assert "wall_clock_s" in timed


def test_report_text_contains_verdict():
    report = check_lemma_coupling(2)
    assert "coupling: pass" in report.to_text()


def test_main_theorem_small():
    report = verify_main_theorem(3)
    assert report.passed
    assert report.meta["both_type_classes"] == 2
    assert report.meta["short-only_classes"] == 0
    assert report.meta["mirror_C_isomorphic_to_C"] == {"C:1": True, "C:3": True}
    both = [r for r in report.rows if r.description.startswith("both-types")]
    assert {r.classification for r in both} == {"C:1", "C:3"}
    assert all(r.chi == 1 for r in both)
    long_rows = [r for r in report.rows if r.description.startswith("long-only")]
    assert all(r.chi <= 0 or "certificate" in r.detail for r in long_rows)


def test_main_theorem_trivial_scale():
    report = verify_main_theorem(1)
    assert report.passed
    both = [r for r in report.rows if r.description.startswith("both-types")]
    assert len(both) == 1
    assert both[0].classification == "C:1"


# sha256 of the report JSON: rows, their order and text, and the meta counts
MAIN_THEOREM_REPORTS = {
    1: "6c5fb4c603c8272f45f235dab5467d9208622d19b132c243cc3df7cace7de108",
    2: "eb209ce88373ec8d38a8af72f7a88e10b893c5f4b155fef59a9e6d8c6d574ac7",
    3: "ff200c916d0af6f6fa507433817f7a2b3b3a16d9c83be8e668b6784985692b53",
    4: "bdc1638a9c50fe1e7fbebc771c7caf16315f6ee8b7c758aaac6cb5589c1b537d",
    5: "3ad7d38486000adb06c066caed274f49f884cbcc336b915dfaf291150cb1a577",
}


@pytest.mark.parametrize("max_vertices", sorted(MAIN_THEOREM_REPORTS))
def test_main_theorem_report_is_pinned(max_vertices):
    text = verify_main_theorem(max_vertices).to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == MAIN_THEOREM_REPORTS[max_vertices]


def test_a_both_type_class_classify_misnames_raises(monkeypatch, capsys):
    # the name classify gives a both-type class is backed by an explicit
    # isomorphism onto the family complex it names
    c3, c5 = FamilyTag("C", 3, "standard"), FamilyTag("C", 5, "standard")
    monkeypatch.setattr(verify, "classify", lambda f: c5 if classify(f) == c3 else classify(f))
    with pytest.raises(RuntimeError, match="is not C:5"):
        verify_main_theorem(5)
    assert cli.main(["verify-theorem", "--max-vertices", "5"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_main_theorem_at_six_vertices():
    # the digest was made by the walk that checked connectivity after
    # reading faces, so it binds the partition filter to that walk
    report = verify_main_theorem(6)
    assert report.passed
    counts = [
        report.meta[key]
        for key in ("both_type_classes", "short-only_classes", "long-only_classes")
    ]
    assert counts == [3, 0, 10]
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "1a11a02d3ce87e6adc4ac53c6d06e710c4c8c8d836260d72cea67dab2f03a955"


# sha256 of each lemma checker's report JSON by max_i; the 63 pins were
# made by folding every row and keying its quotient, so they bind the
# certificate route to the fold route's answers
LEMMA_REPORTS = {
    31: {
        "vertex-identification": "bafaa490254df6bb6c5cc3f13a38454cbe9ac1a8c48c6338d75e120613ecf41d",
        "edge-identification": "0af2bd61fbc16ba1c81ae14ac54aeaf6b64ce9d378f1d9eb29ecb3ade1c4cab5",
        "coupling": "3cf8019a67243346fce3979dfe5feeb821728f78d8eef142133c8681a61290db",
    },
    63: {
        "vertex-identification": "36d2d1953eab57d016313ff3e077fc8248990983267a85bc6aabc9de6a0c3b38",
        "edge-identification": "71f162e864ae80330c466497ee3fccf64f38ed25867fc34cbbacf76b8dc2032b",
        "coupling": "e041d2088dcdd7137f93f492023c57c56768e2e9ee92337e47ae1f34534b489c",
    },
}
LEMMA_CHECKERS = [
    check_lemma_vertex_identification,
    check_lemma_edge_identification,
    check_lemma_coupling,
]


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize(
    "checker, max_i",
    [
        # an id names the checker, and max_i when it is not 31
        pytest.param(checker, max_i, id=checker.__name__ + (f"-{max_i}" if max_i != 31 else ""))
        for max_i in sorted(LEMMA_REPORTS)
        for checker in LEMMA_CHECKERS
    ],
)
def test_lemma_report_is_pinned(checker, max_i):
    report = checker(max_i)
    assert report_digest(report) == LEMMA_REPORTS[max_i][report.name]


def test_lemma_reports_at_127_are_pinned():
    # made when every row of the three checkers was certified by a
    # forced-pair walk, so they bind the shift derivation, the Bezout
    # witness and the coupling rows' own folds to it
    pins = {
        check_lemma_vertex_identification: "8c753434d352781345dfc18aa6793ac7b378a3bb36dad99bc7589cbc6e148b41",
        check_lemma_edge_identification: "f6c606d2a6d57b03a5e7aa2e8ca23160a0d5b18535841fab24f0784bdca79a91",
        check_lemma_coupling: "9d2cbdd060a38fa27955428ab49c2830f4504b06b36df134c69c7af20835c5b5",
    }
    for checker, digest in pins.items():
        assert report_digest(checker(127)) == digest, checker.__name__


def test_every_lemma_row_is_certified_by_its_map(monkeypatch):
    # the fallback classifies a folded state; with it refusing, the pinned
    # reports can only come from rows whose map and partition check
    def refuse(state):
        raise AssertionError("a row fell back to classifying its fold")

    monkeypatch.setattr(verify, "_classify_state", refuse)
    for checker in LEMMA_CHECKERS:
        report = checker(31)
        assert report_digest(report) == LEMMA_REPORTS[31][report.name]


@pytest.mark.parametrize(
    "checker, prediction, max_i, description, found",
    [
        (check_lemma_vertex_identification, "gcd", 9, "C:9 identify v0~v3", "C:3"),
        (check_lemma_edge_identification, "odd_part", 6, "Dt:6 identify b6~b3", "C:3"),
    ],
)
def test_a_wrong_prediction_fails_with_the_folds_class(
    monkeypatch, checker, prediction, max_i, description, found
):
    # every row predicted C:1: the map onto C(1) checks, but the partition
    # does not, so the row is folded and reports the class of its quotient
    monkeypatch.setattr(verify, prediction, lambda *args: 1)
    rows = {row.description: row for row in checker(max_i).rows}
    assert (rows[description].classification, rows[description].passed) == (found, False)
    assert all(row.passed == (row.classification == "C:1") for row in rows.values())


def test_a_prediction_that_does_not_divide_i_is_never_certified(monkeypatch):
    # every row predicts C(v - u): in Z/7, 3 lies in <3>, so the Bezout
    # witness checks for v0 ~ v3, but x -> x mod 3 is no map of C(7), and
    # the fold of v0 ~ v3 is C(1); only the rows with v - u = 1 pass
    monkeypatch.setattr(verify, "gcd", lambda i, m: m)
    rows = {row.description: row for row in check_lemma_vertex_identification(7).rows}
    row = rows["C:7 identify v0~v3"]
    assert (row.classification, row.passed) == ("C:1", False)
    for description, row in rows.items():
        i, u, v = map(int, re.fullmatch(r"C:(\d+) identify v(\d+)~v(\d+)", description).groups())
        assert row.classification == f"C:{gcd(i, v - u)}"
        assert row.passed == (v - u == gcd(i, v - u))


def test_a_wrong_coupling_prediction_fails_with_the_folds_class(monkeypatch):
    # the short cell on D(i), i >= 1, predicted C:1: the derivation joins
    # every class mod odd_part(i), which is C(1)'s one vertex only when
    # odd_part(i) is 1, so any other short row is folded and reports the
    # class of its quotient; the long cells' rows still pass
    monkeypatch.setattr(verify, "odd_part", lambda i: 1)
    rows = check_lemma_coupling(6).rows
    short = {
        row.description: (row.classification, row.passed)
        for row in rows
        if f" type {TYPE_SHORT} " in row.description
    }
    assert short == {
        f"D:{i} couple type {TYPE_SHORT} position 0 at b{i}": (found, found in ("D:0", "C:1"))
        for i, found in enumerate(["D:0", "C:1", "C:1", "C:3", "C:1", "C:5", "C:3"])
    }
    assert all(row.passed for row in rows if row.description not in short)


def test_a_failing_coupling_row_is_folded_once(monkeypatch):
    # certified rows make no fold; each failing row glues its base and
    # folds it once, in the fallback
    monkeypatch.setattr(verify, "odd_part", lambda i: 1)
    folds = []
    identify = verify._identify_edges_state
    monkeypatch.setattr(
        verify, "_identify_edges_state", lambda *args: folds.append(args) or identify(*args)
    )
    rows = check_lemma_coupling(6).rows
    assert [row.description for row in rows if not row.passed] == [
        f"D:{i} couple type {TYPE_SHORT} position 0 at b{i}" for i in (3, 5, 6)
    ]
    assert len(folds) == 3


@pytest.mark.parametrize("d", [3, 5, 15])
def test_map_check_rejects_a_non_cellular_map(d):
    base = _immersion_state(build_C(15))
    target = map_target(family_state(FamilyTag("C", d, "standard")))
    numbers = family_numbers(base)
    fibres = map_fibres(base, family_map(numbers, target), target)
    assert fibres == [x % d for x in range(15)]
    # x -> x + 1 mod d keeps the a-edges but sends b(j): v(2j) -> v(j) to
    # v(2j + 1) -> v(j + 1), which is no b-edge of C(d)
    shifted = [(x + 1) % d for x in numbers]
    assert map_fibres(base, shifted, target) is None


@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_the_map_check_passes_every_family_map_of_the_lemma_rows(variant):
    # the map route that no lemma row runs, kept as the rows' reference:
    # x -> x mod d maps C(i) onto C(d) for each d dividing i, and D(i) onto
    # C(d) for each d = odd_part(i - j), in the variant of both
    targets = {}
    pairs = [("C", i, d) for i in range(1, 64, 2) for d in range(1, i + 1) if i % d == 0]
    pairs += [("D", i, odd_part(i - j)) for i in range(1, 64) for j in range(i)]
    for family, i, d in sorted(set(pairs)):
        base = family_state(FamilyTag(family, i, variant))
        if d not in targets:
            targets[d] = map_target(family_state(FamilyTag("C", d, variant)))
        target = targets[d]
        fibres = map_fibres(base, family_map(family_numbers(base), target), target)
        assert fibres == [x % d for x in range(len(base.vids))], (family, i, d)


def _with_cells(f: Morphism, faces, vertices=(), edges=()) -> Morphism:
    """f with only the given faces, plus the given vertices and a-edges."""
    cx = f.complex
    return Morphism(
        TwoComplex.make(list(cx.vertices) + list(vertices), list(cx.edges) + list(edges), faces),
        f.presentation,
        {**f.edge_labels, **{e.id: "a" for e in edges}},
        {x.id: f.face_types[x.id] for x in faces},
    )


def _skeletons_built_by(monkeypatch, change) -> None:
    """Make the family builder lay out every skeleton as the edges that
    change(i, n, na, nb, variant, edges) makes of the formula's, and keep
    the formula's face list."""
    closed_form = families._closed_form

    def perturbed(i, n, na, nb, variant):
        vids, edges, faces = closed_form(i, n, na, nb, variant)
        return vids, change(i, n, na, nb, variant, edges), faces

    monkeypatch.setattr(families, "_closed_form", perturbed)


def _without(name):
    """The change that drops the edge name(i, n), if any, from the
    skeleton of index i on n vertices."""
    return lambda i, n, na, nb, variant, edges: [e for e in edges if e[0] != name(i, n)]


def _identity_fibres(base, target):
    return map_fibres(base, family_map(family_numbers(base), target), target)


def test_map_check_rejects_a_map_that_misses_a_face():
    # every cell of C(5) less its last long cell lands on C(5), but the
    # missed face makes the map not onto
    c5 = build_C(5)
    target = map_target(family_state(FamilyTag("C", 5, "standard")))
    assert _identity_fibres(_immersion_state(c5), target) == list(range(5))
    less = _with_cells(c5, c5.complex.faces[:-1])
    assert _identity_fibres(_immersion_state(less), target) is None


def test_map_check_rejects_a_face_where_the_target_has_none():
    # base and target are C(5) less one long cell each, f1 and f5: the
    # counts agree, but the base's f5 lands where the target has no face
    c5 = build_C(5)
    first, last = c5.complex.faces[1], c5.complex.faces[-1]
    assert (c5.face_types[first.id], c5.face_types[last.id]) == (TYPE_LONG, TYPE_LONG)
    less_first, less_last = (
        _with_cells(c5, [x for x in c5.complex.faces if x != cell]) for cell in (first, last)
    )
    base = _immersion_state(less_first)
    assert _identity_fibres(base, map_target(base)) == list(range(5))
    assert _identity_fibres(base, map_target(_immersion_state(less_last))) is None


@pytest.mark.parametrize(
    "vertices, edge",
    [([], Edge("a3", "v0", "v2")), (["v3"], Edge("a3", "v0", "v3"))],
    ids=["edge", "vertex"],
)
def test_map_check_rejects_a_map_that_misses_a_vertex_or_an_edge(vertices, edge):
    # D(1) has no a-edge out of v0; the target adds one, on no face, and
    # maybe its own head, so D(1) maps into it with every face hit
    d1 = build_D(1)
    base = _immersion_state(d1)
    d1_target = map_target(family_state(FamilyTag("D", 1, "standard")))
    assert _identity_fibres(base, d1_target) == [0, 1, 2]
    bigger = _with_cells(d1, d1.complex.faces, vertices, [edge])
    assert _identity_fibres(base, map_target(_immersion_state(bigger))) is None


@pytest.mark.parametrize(
    "change",
    [
        # C(i) less a(i): v0 -> v(i - 1): its a-edges form a path, whose
        # first vertex leaves none
        pytest.param(_without(lambda i, n: f"a{i}"), id="path"),
    ],
)
def test_a_base_whose_sigma_a_is_not_the_rotation_raises(monkeypatch, capsys, change):
    _skeletons_built_by(monkeypatch, change)
    _raises_before_any_row(monkeypatch, capsys, check_lemma_vertex_identification, "2.2")


def _raises_before_any_row(
    monkeypatch, capsys, checker, lemma: str, message: str = "off the family formula"
) -> None:
    """checker(5) raises RuntimeError with message and no row made, and
    the CLI reports it as an internal error, exit 2."""
    rows = []
    monkeypatch.setattr(verify, "ReportRow", lambda *args: rows.append(args))
    with pytest.raises(RuntimeError, match=message):
        checker(5)
    assert rows == []
    assert cli.main(["verify-lemma", lemma, "--max-i", "5"]) == 2
    assert "internal error" in capsys.readouterr().err


def _other_variant(i, n, na, nb, variant, edges):
    """The edges with every a-edge reversed: the other variant's skeleton."""
    return [(e, head, tail, g) if e[0] == "a" else (e, tail, head, g) for e, tail, head, g in edges]


@pytest.mark.parametrize(
    "change",
    [
        # the other variant's a-edges run up the path, not down it
        pytest.param(_other_variant, id="variant"),
        # v(2i) has no a-neighbour down and v(2i - 1) none up
        pytest.param(_without(lambda i, n: f"a{2 * i}"), id="missing-edge"),
    ],
)
def test_a_base_whose_sigma_a_is_not_the_shift_raises(monkeypatch, capsys, change):
    _skeletons_built_by(monkeypatch, change)
    _raises_before_any_row(monkeypatch, capsys, check_lemma_edge_identification, "2.4")


def test_a_target_off_the_formula_raises_when_it_is_built(monkeypatch):
    # C(5) less a(5), first needed by the row D:5 identify b5~b0: the rows
    # of D(1), ..., D(4) come before it, and no other
    _skeletons_built_by(monkeypatch, _without(lambda i, n: "a5" if n == i == 5 else None))
    with pytest.raises(RuntimeError, match=r"C\(5\) is off the family formula"):
        verify._Targets()[FamilyTag("C", 5, "standard")]
    rows = []
    monkeypatch.setattr(verify, "ReportRow", lambda *args: rows.append(args[0]))
    with pytest.raises(RuntimeError, match=r"C\(5\) is off the family formula"):
        check_lemma_edge_identification(5)
    assert rows == [f"D:{i} identify b{i}~b{j}" for i in range(1, 5) for j in range(i)]


def test_bezout_witness_matches_the_fold_on_vertex_rows():
    # the fold of v_u ~ v_v joins the classes mod d = gcd(i, v - u): on a
    # base checked against the formula, whose sigma_a is the rotation, the
    # row's witness certifies exactly that partition
    for i in range(3, 16, 2):
        base = family_state(FamilyTag("C", i, "standard"))
        assert base.neighbours()[0] == [(x - 1) % i for x in range(i)]
        for u, v in combinations(range(i), 2):
            d = gcd(i, v - u)
            fold = _identify_vertices_state(base, f"v{u}", f"v{v}").vpar
            assert fold == [x % d for x in range(i)]
            assert verify._in_subgroup(d, v - u, i)


@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_shift_derivation_matches_the_fold_on_edge_rows(variant):
    # the fold of b_i ~ b_j joins the classes mod d = odd_part(i - j): on a
    # base checked against the formula, the derivation from the two heads
    # v_i and v_j gives exactly d, and the edges' ends lie in one class each
    for i in range(1, 16):
        base = family_state(FamilyTag("D", i, variant))
        b_out = base.neighbours()[2]  # b-leaving: b is generator 1
        eix, tail, head = base.edge_ix, base.tail, base.head
        for j in range(i):
            d = odd_part(i - j)
            fold = _identify_edges_state(base, f"b{i}", f"b{j}").vpar
            assert fold == [x % d for x in range(2 * i + 1)]
            assert verify._shift_period(b_out, i, j) == d
            bi, bj = eix[f"b{i}"], eix[f"b{j}"]
            assert (fold[tail[bi]], fold[head[bi]]) == (fold[tail[bj]], fold[head[bj]])


def _coupling_formula_map(glued: _FoldState, i: int, t: int, p: int, target) -> list[int]:
    """The formula map of the coupling row (i, t, p) on its glued base onto
    T: v_x goes to x mod |V(T)|, and the cell's u_q by the row's case."""
    if t == TYPE_SHORT:
        cell = [0]  # the loop at v_0, for i = 0 too (the own slot)
    elif p == 2:
        cell = [2 * i + 2, i + 1, i, 2 * i, 2 * i + 1]
    elif i:
        cell = [2 * i, i, i - 1, 2 * i - 2, 2 * i - 1]  # the own slot: the long face at v_2i
    else:
        cell = [0, 0, 1, 2, 1]  # Dt(1)
    pi = family_map(family_numbers(glued), target)
    return [cell[int(v[1:])] if v[0] == "u" else x for v, x in zip(glued.vids, pi)]


def test_formula_map_matches_the_fold_on_coupling_rows():
    # every coupling row's formula map is cellular and onto its predicted T
    # (the map check), and its fibres are the vertex classes of the row's
    # fold, which classifies as the row reports
    targets, maps = verify._Targets(), {}
    rows = iter(check_lemma_coupling(63).rows)
    for i in range(64):
        base = family_state(FamilyTag("D", i, "standard"))
        for t, word in enumerate(base.presentation.relators):
            glued, cell = _coupling_base(base, t)
            for p in (p for p, (g, _) in enumerate(word) if g == "b"):
                if t == TYPE_SHORT:
                    tag = FamilyTag(*(("C", odd_part(i)) if i else ("D", 0)), "standard")
                elif p == 2:
                    tag = FamilyTag("D", i + 1, "standard")
                else:
                    tag = FamilyTag(*(("D", i, "standard") if i else ("D", 1, "tilde")))
                if tag not in maps:
                    maps[tag] = map_target(family_state(tag))
                pi = _coupling_formula_map(glued, i, t, p, maps[tag])
                folded = _identify_edges_state(glued, cell[p], f"b{i}")
                assert map_fibres(glued, pi, maps[tag]) == folded.vpar, (i, t, p)
                target = targets[tag]
                assert _row_fields(tag, *_classify_state(folded)) == target.row, (i, t, p)
                row = next(rows)
                assert row.description == f"D:{i} couple type {t} position {p} at b{i}"
                assert (row.classification, row.chi, row.passed) == target.row
    assert next(rows, None) is None


def test_the_mirror_map_sends_every_dt_row_onto_c():
    # the map route that no edge row runs, kept as the Dt rows' reference:
    # v_x -> v_(-x mod d) maps Dt(i) onto the standard C(d), d =
    # odd_part(i - j), its fibres are the fold's vertex classes, and the
    # unmirrored x -> x mod d is no map of Dt(i) onto C(d) once d >= 3
    targets = {}
    for i in range(1, 64):
        base = family_state(FamilyTag("D", i, "tilde"))
        numbers = family_numbers(base)
        for j in range(i):
            d = odd_part(i - j)
            if d not in targets:
                targets[d] = map_target(family_state(FamilyTag("C", d, "standard")))
            target = targets[d]
            fibres = map_fibres(base, [-x % d for x in numbers], target)
            assert fibres == [x % d for x in range(2 * i + 1)], (i, j)
            assert _identify_edges_state(base, f"b{i}", f"b{j}").vpar == fibres, (i, j)
            unmirrored = map_fibres(base, family_map(numbers, target), target)
            assert (unmirrored is None) == (d >= 3), (i, j)


@pytest.mark.parametrize(
    "d, m, i, certified",
    [(3, 6, 9, True), (1, 4, 9, True), (3, 3, 15, True), (1, 3, 9, False), (2, 3, 9, False)],
)
def test_bezout_witness_needs_d_to_divide_m_and_lie_in_its_subgroup(d, m, i, certified):
    # gcd(9, 3) = 3: 1 is not in <3> of Z/9 (no inverse of 3 mod 9), and 2
    # does not divide 3
    assert verify._in_subgroup(d, m, i) is certified


def test_lemma_rows_run_no_fold(monkeypatch):
    # every lemma row is certified by derivation on states checked against
    # the formula: no row glues a coupling base, folds or checks a map
    def refuse(*args):
        raise AssertionError("a lemma row was glued or folded")

    monkeypatch.setattr(verify, "_identify_edges_state", refuse)
    monkeypatch.setattr(verify, "_identify_vertices_state", refuse)
    monkeypatch.setattr(verify, "_coupling_base", refuse)
    for max_i in sorted(LEMMA_REPORTS):
        for checker in LEMMA_CHECKERS:
            report = checker(max_i)
            assert report_digest(report) == LEMMA_REPORTS[max_i][report.name]


def test_lemma_checkers_make_no_morphism(monkeypatch):
    # every base and target is a family state built from its compact form,
    # and Dt(1)'s key and its candidates' are read off one, so with no
    # complex made the pinned reports still come out
    def refuse(*args):
        raise AssertionError("the lemma route made a Morphism")

    monkeypatch.setattr(TwoComplex, "make", staticmethod(refuse))
    for max_i in sorted(LEMMA_REPORTS):
        for checker in LEMMA_CHECKERS:
            report = checker(max_i)
            assert report_digest(report) == LEMMA_REPORTS[max_i][report.name]


def _with_b_heads_swapped(i, n, na, nb, variant, edges):
    """D(1)'s edges with the heads of b0 and b1 swapped; others unchanged."""
    if (i, n) != (1, 3):
        return edges
    heads = {eid: head for eid, _, head, _ in edges}
    swap = {"b0": heads["b1"], "b1": heads["b0"]}
    return [(eid, tail, swap.get(eid, head), g) for eid, tail, head, g in edges]


def _repeat_first_trace(monkeypatch):
    first = {}
    trace = families.trace_relator

    def repeat(word, forward, backward, start):
        if first.get(word) is None:
            first[word] = trace(word, forward, backward, start)
        return first[word]

    monkeypatch.setattr(families, "trace_relator", repeat)


def _perturb_formula(change):
    def perturb(monkeypatch):
        assemble = families._assemble
        monkeypatch.setattr(families, "_assemble", lambda *args: assemble(*change(*args)))

    return perturb


@pytest.mark.parametrize(
    "perturb, message",
    [
        # D(1) on two vertices: b0 and b1 both leave v0
        pytest.param(
            _perturb_formula(lambda family, i, n, na, nb, v: (family, i, n - 1, na - 1, nb, v)),
            "not folded",
            id="not-folded",
        ),
        pytest.param(
            _perturb_formula(lambda family, i, n, na, nb, v: (family, i + 1, n, na, nb, v)),
            "off the family formula",
            id="face-count",
        ),
        # every trace of a relator is its first: two faces on one loop
        pytest.param(_repeat_first_trace, "share a slot", id="shared-slot"),
        # D(1) with b0: v0 -> v1 and b1: v2 -> v0, the first base
        pytest.param(
            lambda monkeypatch: _skeletons_built_by(monkeypatch, _with_b_heads_swapped),
            r"D\(1\) is off the family formula",
            id="sigma-b",
        ),
    ],
)
def test_a_perturbed_family_formula_raises_before_any_row(monkeypatch, capsys, perturb, message):
    perturb(monkeypatch)
    _raises_before_any_row(monkeypatch, capsys, check_lemma_edge_identification, "2.4", message)


def _targets_built(monkeypatch, max_i: int) -> list[FamilyTag]:
    """The tags of every target the three checkers build at max_i."""
    used = set()
    add = verify._Targets.add

    def record(self, tag, state):
        used.add(tag)
        return add(self, tag, state)

    monkeypatch.setattr(verify._Targets, "add", record)
    for checker in LEMMA_CHECKERS:
        checker(max_i)
    monkeypatch.undo()
    return sorted(used, key=str)


def test_targets_report_what_classify_reports(monkeypatch):
    # a standard target names itself and only Dt(1) is keyed; either way
    # its certified row must be the one that classify's name and chi for
    # the Morphism that build_family makes give
    used = _targets_built(monkeypatch, 63)
    assert len(used) == 32 + 65 + 1  # C(1), C(3), ..., C(63), D(0..64), Dt(1)
    for tag in used:
        built = build_family(tag)
        expected = _row_fields(tag, classify(built), euler_characteristic(built.complex))
        assert verify._Targets()[tag].row == expected, tag


def test_every_target_indexes_its_vertex_v_x_at_x(monkeypatch):
    # so the family map can send v_x to index x mod |V(T)| with no table;
    # the family builder's formula check (families._assemble) stays the
    # guard if this ever fails to hold
    for tag in _targets_built(monkeypatch, 15):
        state = _immersion_state(build_family(tag))
        assert state.vertex_ix == {f"v{x}": x for x in range(len(state.vids))}, tag


@pytest.mark.parametrize(
    "build, family, cell",
    [
        pytest.param(lambda: _immersion_state(build_C(9)), 9, 0, id="C"),
        pytest.param(lambda: _immersion_state(build_D(4)), 9, 0, id="D"),
        pytest.param(lambda: _immersion_state(build_D(4, "tilde")), 9, 0, id="Dt"),
        # the long cell's five vertices u0, ..., u4 beside D(3)
        pytest.param(
            lambda: _coupling_base(_immersion_state(build_D(3)), TYPE_LONG)[0], 7, 5, id="coupling"
        ),
    ],
)
def test_family_map_sends_v_x_to_x_mod_n(build, family, cell):
    base = build()
    numbers = family_numbers(base)
    for tag, n in ((FamilyTag("C", 3, "standard"), 3), (FamilyTag("D", 2, "standard"), 5)):
        pi = family_map(numbers, map_target(family_state(tag)))
        expected = {f"v{x}": x % n for x in range(family)} | {f"u{k}": -1 for k in range(cell)}
        assert dict(zip(base.vids, pi)) == expected


def test_building_a_target_compacts_it_once(monkeypatch):
    # the family builder makes T's compact form once; T's fold state is
    # read off that form, a standard T is not keyed, and T is never
    # compacted from a Morphism, nor made one
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for module in (folding, families):
        monkeypatch.setattr(module, "_compact", counted("_compact", module._compact))
    state_compact = counted("_FoldState.compact", folding._FoldState.compact)
    monkeypatch.setattr(folding._FoldState, "compact", state_compact)
    monkeypatch.setattr(families, "_form", counted("_form", families._form))
    monkeypatch.setattr(TwoComplex, "make", staticmethod(counted("TwoComplex.make", TwoComplex.make)))
    verify._Targets()[FamilyTag("C", 5, "standard")]
    assert calls == ["_form"]


def _calls(run, *functions) -> list[tuple[str, dict]]:
    """(name, locals) of each call of the functions while run() runs,
    counted by code object, whatever name a module binds them to."""
    codes = {fn.__code__: fn.__name__ for fn in functions}
    calls = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append((codes[frame.f_code], dict(frame.f_locals)))

    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_the_closed_form_runs_once_per_family_build():
    # the builder checks each complex against the formula it lays the
    # skeleton out from, so nothing computes the formula a second time
    calls = Counter(
        name
        for checker in LEMMA_CHECKERS
        for name, _ in _calls(lambda: checker(15), families._closed_form, families._form)
    )
    assert calls["_form"] > 0
    assert calls["_closed_form"] == calls["_form"]


def test_lemma_checkers_key_only_the_tilde_target():
    # a standard target names itself (the lookup order of
    # families.classify_compact), so the one target keyed is Dt(1), in the
    # coupling checker, against its candidates D(1) and Dt(1)
    keys = [len(_calls(lambda: checker(31), canonical._bfs)) for checker in LEMMA_CHECKERS]
    assert keys == [0, 0, 3]


@pytest.mark.parametrize(
    "checker", [check_lemma_vertex_identification, check_lemma_edge_identification]
)
def test_a_checker_call_builds_each_family_complex_once(checker):
    # each base is registered as a target and no target is built for a
    # key, so a tag is built once per call, as base or as target
    tags = Counter(str(args["tag"]) for _, args in _calls(lambda: checker(31), families._form))
    assert tags and max(tags.values()) == 1, [tag for tag, k in tags.items() if k > 1]


def test_main_theorem_budget_covers_one_pass():
    # 60,215 skeleton pairs at up to 5 vertices, each counted once whether
    # or not its faces are looked at, plus the face subsets of all three
    # type sets that lie in the free-face 2-core of their pair
    assert verify_main_theorem(5, max_nodes=61_429).passed
    with pytest.raises(BudgetExceeded):
        verify_main_theorem(5, max_nodes=61_428)


def test_main_theorem_budget_at_six_vertices():
    # 926,470 skeleton pairs at up to 6 vertices plus 9,341 face subsets;
    # the node count binds the walk to visit the same pairs and subsets
    assert verify_main_theorem(6, max_nodes=935_811).passed
    with pytest.raises(BudgetExceeded) as raised:
        verify_main_theorem(6, max_nodes=935_810)
    assert (raised.value.nodes, raised.value.budget) == (935_811, 935_810)


@pytest.mark.parametrize("no_free_faces", [True, False])
def test_enumerate_by_types_matches_single_filters(no_free_faces):
    type_sets = [
        frozenset({TYPE_SHORT, TYPE_LONG}),
        frozenset({TYPE_SHORT}),
        frozenset({TYPE_LONG}),
    ]
    together = enumerate_by_types(4, type_sets, True, no_free_faces)
    for types in type_sets:
        alone = enumerate_by_types(4, [types], True, no_free_faces)
        filt = EnumerationFilter(4, True, no_free_faces, types)
        expected = [morphism_to_json(m) for m in enumerate_immersions(filt)]
        assert [morphism_to_json(m) for m in alone[types]] == expected
        assert [morphism_to_json(m) for m in together[types]] == expected


def admits_morphism_from(c, x):
    """Oracle: is there a label- and type-preserving combinatorial map
    c -> x?  Over an immersed target the map is forced by the image of one
    vertex, so try every image of c's first vertex and extend."""
    out = {}
    inc = {}
    for e in x.complex.edges:
        lab = x.edge_labels[e.id]
        out[(e.tail, lab)] = e
        inc[(e.head, lab)] = e
    slots = {}
    for face in x.complex.faces:
        slots[(face.boundary[0][0], x.face_types[face.id])] = face
    base = c.complex.vertices[0]
    for image in x.complex.vertices:
        vmap = {base: image}
        emap = {}
        queue = [base]
        ok = True
        while queue and ok:
            v = queue.pop()
            for e in c.complex.edges:
                lab = c.edge_labels[e.id]
                for mine, theirs_end, table in ((e.tail, e.head, out), (e.head, e.tail, inc)):
                    if mine != v:
                        continue
                    hit = table.get((vmap[v], lab))
                    if hit is None:
                        ok = False
                        break
                    emap[e.id] = hit.id
                    w = hit.head if table is out else hit.tail
                    if theirs_end in vmap:
                        if vmap[theirs_end] != w:
                            ok = False
                            break
                    else:
                        vmap[theirs_end] = w
                        queue.append(theirs_end)
                if not ok:
                    break
        if not ok or len(vmap) < len(c.complex.vertices):
            continue
        # faces: an immersion has at most one face per starting slot, so the
        # image face is forced; its whole boundary must match
        faces_ok = True
        for face in c.complex.faces:
            t = c.face_types[face.id]
            image_face = slots.get((emap[face.boundary[0][0]], t))
            if image_face is None:
                faces_ok = False
                break
            expected = tuple((emap[e], s) for e, s in face.boundary)
            if image_face.boundary != expected:
                faces_ok = False
                break
        if faces_ok:
            return True
    return False


def test_rigidity_of_c_under_incoming_morphisms():
    # any enumerated immersion admitting a morphism from some C is itself
    # in the C family; checked against the broad pool with free faces
    from foldcx.enumeration import EnumerationFilter, enumerate_immersions

    pool = enumerate_immersions(EnumerationFilter(4, require_no_free_faces=False))
    cs = [build_C(1), build_C(3)]
    hits = 0
    for x in pool:
        if any(admits_morphism_from(c, x) for c in cs):
            hits += 1
            tag = classify(x)
            assert tag is not None and tag.family == "C", tag
    assert hits >= 2  # at least the C's themselves are in the pool


def test_edge_side_count_bounded_by_label_slots():
    # an immersed edge carries at most one side per slot of its label; for
    # the standard target both labels have three slots
    from foldcx.enumeration import EnumerationFilter, enumerate_immersions

    for x in enumerate_immersions(EnumerationFilter(3, require_no_free_faces=False)):
        counts = {e.id: 0 for e in x.complex.edges}
        for face in x.complex.faces:
            for eid, _ in face.boundary:
                counts[eid] += 1
        assert all(n <= 3 for n in counts.values())
