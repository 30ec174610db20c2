import random
import re
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from foldcx.canonical import canonical_form, isomorphic
from foldcx.complexes import (
    ComplexError,
    _compact,
    free_faces,
    immersion_witness,
    is_immersion,
    validate,
)
from foldcx import complexes, families
from foldcx.families import FamilyTag, build_C, build_D, classify, kp, target_presentation
from foldcx.folding import (
    FoldTrace,
    MergeEvent,
    _check_immersion,
    _coupling_base,
    _find,
    _FoldState,
    _identify_edges_state,
    _identify_vertices_state,
    _immersion_state,
    couple,
    fold,
    identify_edges,
    identify_vertices,
    replay_trace,
)
from foldcx.verify import closure_search
from helpers import (
    disjoint_union,
    face_conflicts,
    folded_prefold,
    graph_conflicts,
    merge_edges,
    quotient_vertices,
    random_prefold,
    reference_coupling_base,
    rescan_fold,
    run_rescan,
    unmerged_view,
)


def cells(m):
    return (
        len(m.complex.vertices),
        len(m.complex.edges),
        len(m.complex.faces),
    )


def test_fold_fixpoint_on_immersion():
    folded, trace = fold(kp())
    assert len(trace) == 0
    assert folded == kp()


def test_fold_idempotent():
    rng = random.Random(3)
    for _ in range(10):
        noisy = random_prefold(rng)
        once, _ = fold(noisy)
        twice, trace = fold(once)
        assert len(trace) == 0
        assert canonical_form(twice) == canonical_form(once)


def test_fold_output_is_immersion_and_valid():
    rng = random.Random(4)
    for _ in range(25):
        folded, _ = fold(random_prefold(rng))
        assert validate(folded) == []
        assert is_immersion(folded)


def test_state_compact_matches_its_quotient():
    # searches key fold states on compact() without building the quotient
    rng = random.Random(13)
    for _ in range(25):
        state = _FoldState(random_prefold(rng))
        state.run()
        assert state.compact() == _compact(state.quotient())


def test_fold_never_increases_cells():
    rng = random.Random(5)
    for _ in range(25):
        noisy = random_prefold(rng)
        folded, _ = fold(noisy)
        assert all(a <= b for a, b in zip(cells(folded), cells(noisy)))


def test_two_short_faces_on_one_edge_merge():
    two = disjoint_union([build_D(0), build_D(0)])
    glued = quotient_vertices(two, [("v0.0", "v0.1")])
    # the two b-loops now share a vertex: folding merges the edges, which
    # forces the two short faces onto one slot and merges them
    folded, _ = fold(glued)
    assert cells(folded) == (1, 1, 1)
    assert str(classify(folded)) == "D:0"


def test_coupling_base_step_both_appearances():
    assert str(classify(couple(build_D(0), 1, 2, "b0"))) == "D:1"
    assert str(classify(couple(build_D(0), 1, 0, "b0"))) == "Dt:1"


def test_coupling_base_matches_the_morphism_glue():
    # the glue renumbers the state's cells with the fresh ones in shortlex
    # order, as TwoComplex.make sorts the glued Morphism's: D(i) takes the
    # face ids f0..fi, so the cell's face sorts last, and the u* vertices
    # sort before every v_x; random immersions have dotted ids
    starts = [build_D(i) for i in range(41)] + [folded_prefold(seed) for seed in range(30)]
    for f in starts:
        base = _immersion_state(f)
        for t in range(len(f.presentation.relators)):
            glued, cell = _coupling_base(base, t)
            reference, reference_cell = reference_coupling_base(f, t)
            assert cell == reference_cell
            assert unmerged_view(glued) == unmerged_view(reference)
            assert not glued.pending


def test_coupling_matches_construction():
    d1 = couple(build_D(0), 1, 2, "b0")
    assert isomorphic(d1, build_D(1)) is not None
    # iterate the construction: couple along the second appearance at the
    # free b-edge of the previous stage (ids in d1 are quotient names)
    free_b = next(
        e for e in sorted(free_faces(d1.complex)) if d1.edge_labels[e] == "b"
    )
    d2 = couple(d1, 1, 2, free_b)
    assert isomorphic(d2, build_D(2)) is not None


def test_couple_net_face_increase_at_most_one():
    for i in (0, 1, 2, 3):
        d = build_D(i)
        for t, p in ((0, 0), (1, 0), (1, 2)):
            result = couple(d, t, p, f"b{i}")
            assert len(result.complex.faces) <= len(d.complex.faces) + 1


def test_couple_rejects_bad_moves():
    # each input also fails every later check, so the checks' order is pinned
    d = build_D(1)
    noisy = quotient_vertices(d, [("v0", "v1")])
    cases = [
        ((noisy, 2, 5, "zz"), "expected an immersion, but "),
        ((d, 2, 5, "zz"), "unknown relator type 2"),
        ((d, 1, 5, "zz"), "position 5 outside relator of length 5"),
        ((d, 1, 2, "zz"), "unknown edge zz"),
        (
            (d, 1, 1, "b1"),  # position 1 carries the letter a
            "label mismatch at position 1: relator letter is 'a', edge b1 is labeled 'b'",
        ),
    ]
    for args, message in cases:
        with pytest.raises(ComplexError, match="^" + re.escape(message)):
            couple(*args)


def test_identify_edges_definition_of_c():
    for i in (1, 2, 3, 5):
        got = identify_edges(build_D(i), f"b{i}", "b0")
        assert isomorphic(got, build_C(i)) is not None


def test_identify_edges_intermediate_case():
    # gluing the last b to a middle one forces the shorter spacing cascade
    got = identify_edges(build_D(3), "b3", "b1")
    assert isomorphic(got, kp()) is not None


def test_identify_edges_rejects_mismatched_labels():
    with pytest.raises(ComplexError, match="labels differ"):
        identify_edges(build_D(1), "b1", "a1")


def test_identify_vertices_examples():
    assert str(classify(identify_vertices(build_C(3), "v0", "v1"))) == "C:1"
    with pytest.raises(ComplexError, match="distinct"):
        identify_vertices(build_C(3), "v0", "v0")


def test_moves_require_immersions():
    rng = random.Random(6)
    noisy = random_prefold(rng)
    while is_immersion(noisy):
        noisy = random_prefold(rng)
    with pytest.raises(ComplexError, match="expected an immersion"):
        identify_vertices(noisy, *noisy.complex.vertices[:2])


def test_trace_replay_reproduces_output():
    rng = random.Random(7)
    for _ in range(20):
        noisy = random_prefold(rng)
        folded, trace = fold(noisy)
        assert replay_trace(noisy, trace) == folded


def test_trace_rejects_unknown_kinds_and_cells():
    rng = random.Random(5)
    noisy = random_prefold(rng)
    _, trace = fold(noisy)
    faces = [ev for ev in trace.events if ev.kind == "face-merge"]
    assert faces
    # a kind other than the three merges is no face merge
    with pytest.raises(ComplexError, match="bogus"):
        MergeEvent("bogus", faces[0].survivor, faces[0].absorbed)
    # a cell the input lacks, or a cell of another sort, is named
    for ev in (
        MergeEvent("face-merge", faces[0].survivor, "nowhere"),
        MergeEvent("vertex-merge", faces[0].survivor, faces[0].absorbed),
    ):
        with pytest.raises(ComplexError, match=repr(ev.absorbed)):
            replay_trace(noisy, FoldTrace(trace.events + (ev,)))


def test_trace_covers_all_absorbed_cells():
    rng = random.Random(9)
    noisy = random_prefold(rng)
    folded, trace = fold(noisy)
    absorbed = {(e.kind, e.absorbed) for e in trace.events}
    lost_vertices = set(noisy.complex.vertices) - set(folded.complex.vertices)
    assert lost_vertices == {v for k, v in absorbed if k == "vertex-merge"}


def test_engines_agree():
    rng = random.Random(10)
    for _ in range(30):
        noisy = random_prefold(rng)
        worklist, _ = fold(noisy)
        rescan, _ = rescan_fold(noisy, random.Random(0))
        assert canonical_form(worklist) == canonical_form(rescan)


def test_confluence_across_random_orders():
    rng = random.Random(11)
    for _ in range(15):
        noisy = random_prefold(rng)
        reference = canonical_form(fold(noisy)[0])
        for seed in range(8):
            shuffled, _ = rescan_fold(noisy, random.Random(seed))
            assert canonical_form(shuffled) == reference


def test_deterministic_trace():
    rng = random.Random(12)
    noisy = random_prefold(rng)
    assert fold(noisy)[1] == fold(noisy)[1]


def merge_vertex_ids(state, u, v):
    state.merge_vertices(state.vertex_ix[u], state.vertex_ix[v])


def merge_edge_ids(state, e1, e2):
    merge_edges(state, state.edge_ix[e1], state.edge_ix[e2])


def move_cases():
    """(input, move, merge, x, y) for the vertex moves of C(3..11) and the
    b-edge moves of D(1..10) in both variants: move is the library's move
    on a fold state, merge the rescan engine's union of the same pair."""
    cases = []
    for i in range(3, 12, 2):
        c = build_C(i)
        for u, v in combinations(c.complex.vertices, 2):
            cases.append((c, _identify_vertices_state, merge_vertex_ids, u, v))
    for variant in ("standard", "tilde"):
        for i in range(1, 11):
            d = build_D(i, variant)
            for j, k in combinations(range(i + 1), 2):
                cases.append((d, _identify_edges_state, merge_edge_ids, f"b{j}", f"b{k}"))
    return cases


def test_flat_indexes_match_the_rescan_engine():
    # run closes the vertex classes only through end_rep and reads the edge
    # and face classes off by key; the rescan engine recomputes every
    # conflict from scratch after every merge
    cases = move_cases()
    assert len(cases) == 125 + 440  # vertex pairs, b-edge pairs
    for k, (f, move, merge, x, y) in enumerate(cases):
        moved = move(_FoldState(f), x, y)
        state = _FoldState(f)
        merge(state, x, y)
        run_rescan(state, random.Random(k))
        assert moved.quotient() == state.quotient(), (move.__name__, x, y)


def test_run_leaves_no_conflict():
    # run merges no edge and no face pairwise: it reads both classes off by
    # key, and the rescan engine's conflict sets must then be empty
    rng = random.Random(15)
    states = [_FoldState(random_prefold(rng)) for _ in range(25)]
    for state in states:
        state.run()
    states += [move(_FoldState(f), x, y) for f, move, _, x, y in move_cases()]
    for state in states:
        assert graph_conflicts(state) == [] and face_conflicts(state) == []


def test_folding_copies_leaves_the_base_state_unchanged():
    # D(6) has free faces and boundary vertices, so its merges also fill
    # empty index keys, not only queue pairs; a coupling base holds D(6)
    # beside one unattached cell
    d = build_D(6)
    base = _immersion_state(d)
    glued = {t: _coupling_base(base, t) for t in (0, 1)}
    bases = [base] + [state for state, _ in glued.values()]
    fields = ("vpar", "epar", "fpar", "end_rep")
    before = [{name: list(getattr(b, name)) for name in fields} for b in bases]
    moves = [(base, _identify_vertices_state, "v0", "v12", identify_vertices(d, "v0", "v12"))]
    moves += [
        (base, _identify_edges_state, f"b{j}", f"b{k}", identify_edges(d, f"b{j}", f"b{k}"))
        for j, k in list(combinations(range(7), 2))[:9]
    ]
    moves += [
        (glued[t][0], _identify_edges_state, glued[t][1][p], "b6", couple(d, t, p, "b6"))
        for t, p in ((0, 0), (1, 0), (1, 2))
    ]
    for on_base, on_state, x, y, expected in moves:
        state = on_state(on_base, x, y)
        assert state.quotient() == expected
        # one trace event per absorbed cell
        cells_in = len(on_base.vpar) + len(on_base.epar) + len(on_base.fpar)
        assert len(state.trace()) == cells_in - sum(cells(expected)) > 0
    assert [{name: list(getattr(b, name)) for name in fields} for b in bases] == before
    assert not any(b.pending for b in bases)
    assert base.quotient() == d


def test_folded_skeleton_equates_faces_that_share_a_slot():
    # the face pass keys a face on its first boundary edge alone: once no
    # graph fold is left, faces of one relator sharing a slot share them all
    rng = random.Random(14)
    states = [_FoldState(random_prefold(rng)) for _ in range(25)]
    for f, _, merge, x, y in move_cases():
        state = _FoldState(f)
        merge(state, x, y)
        states.append(state)
    pairs = 0
    for state in states:
        while graph := graph_conflicts(state):
            merge_edges(state, *graph[0])
        epar = state.epar
        for x, y in face_conflicts(state):
            pairs += 1
            assert [_find(epar, e) for e, _ in state.boundary[x]] == [
                _find(epar, e) for e, _ in state.boundary[y]
            ]
    assert pairs


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=4),
    st.integers(0, 2**32),
)
def test_fold_is_confluent_and_replayable(seed, gluings, order_seed):
    noisy = random_prefold(random.Random(seed))
    vertices = noisy.complex.vertices
    n = len(vertices)
    noisy = quotient_vertices(
        noisy, [(vertices[a % n], vertices[b % n]) for a, b in gluings]
    )
    worklist, trace = fold(noisy)
    shuffled, shuffled_trace = rescan_fold(noisy, random.Random(order_seed))
    assert shuffled == worklist
    assert shuffled_trace == trace
    assert replay_trace(noisy, trace) == worklist
    # the trace is the quotient map on absorbed cells: each appears once
    absorbed = [(ev.kind, ev.absorbed) for ev in trace.events]
    assert len(set(absorbed)) == len(absorbed) == sum(cells(noisy)) - sum(cells(worklist))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
def test_edge_moves_match_the_rescan_engine(seed, pick, order_seed):
    # an edge move unions the two edges' tails and heads before run, which
    # then reads the edge classes off by key instead of merging them; the
    # rescan engine merges every edge pair it folds, the moved pair first
    base = _FoldState(random_prefold(random.Random(seed)))
    pairs = [
        (e1, e2)
        for e1, e2 in combinations(range(len(base.elab)), 2)
        if base.elab[e1] == base.elab[e2]
    ]
    assume(pairs)  # a lone KP part has one edge per label
    e1, e2 = pairs[pick % len(pairs)]
    moved = _identify_edges_state(base, base.eids[e1], base.eids[e2])
    state = base.copy()
    merge_edges(state, e1, e2)
    run_rescan(state, random.Random(order_seed))
    assert (moved.quotient(), moved.trace()) == (state.quotient(), state.trace())


@pytest.mark.parametrize(
    "change, message",
    [
        # b1 leaves v0 beside the loop b0
        (lambda c: c._replace(tail=[1, 2, 0, 0]), "skeleton not folded at edge b1"),
        # the long face's last side reads a2 forwards, where its relator reads A
        (
            lambda c: c._replace(boundary=[c.boundary[0], c.boundary[1][:-1] + [(1, 1)]]),
            "face f1 does not read its relator on a closed path",
        ),
        # the long face's second side is a2, which does not start where b1 stops
        (
            lambda c: c._replace(boundary=[c.boundary[0], [(3, 1), (1, 1), *c.boundary[1][2:]]]),
            "face f1 does not read its relator on a closed path",
        ),
        # a second short face on the loop b0
        (
            lambda c: c._replace(ftype=[0, *c.ftype], boundary=[c.boundary[0], *c.boundary]),
            r"two sides of b0 share a slot \(0, 0\)",
        ),
    ],
    ids=["vertex-link", "letter", "open-path", "edge-link"],
)
def test_check_immersion_names_the_first_failure(change, message):
    c, ids = families._form(FamilyTag("D", 1, "standard"))
    _check_immersion(c, target_presentation(), ids)
    with pytest.raises(RuntimeError, match="folding ended at a non-immersion: " + message):
        _check_immersion(change(c), target_presentation(), ids)


def test_one_immersion_check_and_one_compaction():
    # immersion_witness, the family builder, the closure search and a move
    # all check through one routine, and a move compacts its input once;
    # calls are counted by code object, whatever name a module binds
    codes = {complexes._first_failure.__code__: "check", complexes._compact.__code__: "compact"}

    def counted(call) -> Counter:
        calls = Counter()

        def count(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code]] += 1

        sys.setprofile(count)
        try:
            call()
        finally:
            sys.setprofile(None)
        return calls

    d3 = build_D(3)
    assert counted(lambda: immersion_witness(kp()))["check"] > 0
    assert counted(lambda: build_D(2))["check"] > 0
    assert counted(lambda: closure_search(build_D(1), 3))["check"] > 0
    move = counted(lambda: identify_edges(d3, "b3", "b0"))
    assert move["check"] > 0 and move["compact"] == 1
