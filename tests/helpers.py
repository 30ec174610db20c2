"""Shared test utilities: disjoint unions, isomorphic copies with shuffled
names, randomized pre-fold inputs, the rescan fold engine kept as the
reference for folding.fold, the glue of a closed cell beside a Morphism
kept as the reference for the one beside a fold state, a full-branch
closure search kept as the reference for the one-edge rule,
dense homology kept as the reference for the reduced one, the exhaustive
breadth-first key kept as the reference for the pruned one and the walk
over every skeleton pair and face subset kept as the reference for the
enumeration's face table and free-face 2-core, and the face table that
tries every choice of b-steps kept as the reference for the one that
forces the last b-step, the map check of a family map onto a family
complex kept as the reference for the lemma rows' formula maps, and the
walk over a Morphism's cells by id kept as the reference for the one
immersion check on the compact form."""

from __future__ import annotations

import functools
import random
from collections import Counter, deque
from itertools import chain, combinations, product
from typing import NamedTuple

from foldcx.canonical import canonical_form, canonical_key
from foldcx.complexes import (
    Compact,
    Edge,
    Face,
    ImmersionWitness,
    Morphism,
    TwoComplex,
    free_faces,
    immersion_witness,
    trace_relator,
)
from foldcx.enumeration import (
    EnumerationFilter,
    _a_skeletons,
    _b_edge,
    _free_trace,
    _partial_injections,
    _trace,
    _Trace,
    enumerate_immersions,
)
from foldcx.families import build_C, build_D, kp, target_presentation
from foldcx.folding import (
    FoldTrace,
    _checked,
    _coupling_base,
    _find,
    _finish,
    _flatten,
    _FoldState,
    _fresh_ids,
    _identify_edges_state,
    _immersion_state,
    fold,
)
from foldcx.homology import HomologyProfile, smith_normal_form
from foldcx.verify import ClosureResult


def rename(f: Morphism, suffix: str) -> Morphism:
    ren = lambda x: f"{x}.{suffix}"
    cx = f.complex
    return Morphism(
        TwoComplex.make(
            [ren(v) for v in cx.vertices],
            [Edge(ren(e.id), ren(e.tail), ren(e.head)) for e in cx.edges],
            [
                Face(ren(x.id), tuple((ren(e), s) for e, s in x.boundary))
                for x in cx.faces
            ],
        ),
        f.presentation,
        {ren(e): lab for e, lab in f.edge_labels.items()},
        {ren(x): t for x, t in f.face_types.items()},
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


def disjoint_union(parts: list[Morphism]) -> Morphism:
    pres = parts[0].presentation
    vertices, edges, faces, labels, types = [], [], [], {}, {}
    for k, part in enumerate(parts):
        p = rename(part, str(k))
        vertices += list(p.complex.vertices)
        edges += list(p.complex.edges)
        faces += list(p.complex.faces)
        labels.update(p.edge_labels)
        types.update(p.face_types)
    return Morphism(TwoComplex.make(vertices, edges, faces), pres, labels, types)


def quotient_vertices(f: Morphism, pairs) -> Morphism:
    """Glue vertex pairs without folding; the result stays a valid morphism
    but is typically no longer locally injective."""
    target: dict[str, str] = {}

    def resolve(v: str) -> str:
        while v in target:
            v = target[v]
        return v

    for u, v in pairs:
        ru, rv = resolve(u), resolve(v)
        if ru != rv:
            lo, hi = sorted((ru, rv))
            target[hi] = lo
    cx = f.complex
    edges = [Edge(e.id, resolve(e.tail), resolve(e.head)) for e in cx.edges]
    vertices = sorted({resolve(v) for v in cx.vertices})
    return Morphism(
        TwoComplex.make(vertices, edges, list(cx.faces)),
        f.presentation,
        dict(f.edge_labels),
        dict(f.face_types),
    )


def random_prefold(rng: random.Random) -> Morphism:
    """A random valid (usually non-immersed) morphism over the standard
    target: a disjoint union of small family complexes with a few vertex
    pairs glued together."""
    pool = [kp(), build_D(0), build_D(1), build_D(2), build_C(1), build_C(3)]
    parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    union = disjoint_union(parts)
    vertices = list(union.complex.vertices)
    pairs = [
        (rng.choice(vertices), rng.choice(vertices))
        for _ in range(rng.randint(1, 1 + len(vertices) // 2))
    ]
    return quotient_vertices(union, pairs)


def _pairs(groups: dict[tuple, list[int]]) -> list[tuple[int, int]]:
    """The sorted pairs of cells that share a group.  Groups list roots in
    increasing order, so each pair comes as (smaller, larger)."""
    return sorted({pair for group in groups.values() for pair in combinations(group, 2)})


def merge_edges(state: _FoldState, e1: int, e2: int) -> None:
    """Union two edge classes and both pairs of their ends."""
    epar = state.epar
    r1, r2 = _find(epar, e1), _find(epar, e2)
    if r1 == r2:
        return
    if state.elab[r1] != state.elab[r2]:
        raise RuntimeError("edge merge with mismatched labels")
    survivor, absorbed = (r1, r2) if r1 < r2 else (r2, r1)
    epar[absorbed] = survivor
    state.merge_vertices(state.tail[r1], state.tail[r2])
    state.merge_vertices(state.head[r1], state.head[r2])


def merge_faces(state: _FoldState, f1: int, f2: int) -> None:
    """Union two face classes; their boundaries are left to the graph folds."""
    r1, r2 = _find(state.fpar, f1), _find(state.fpar, f2)
    if r1 == r2:
        return
    if state.ftype[r1] != state.ftype[r2]:
        raise RuntimeError("face merge with mismatched types")
    survivor, absorbed = (r1, r2) if r1 < r2 else (r2, r1)
    state.fpar[absorbed] = survivor


def graph_conflicts(state: _FoldState) -> list[tuple[int, int]]:
    """Pairs of live edges with one label at one (endpoint class, end)."""
    by_end: dict[tuple[int, int, int], list[int]] = {}
    for e in state._roots(state.epar):
        lab = state.elab[e]
        by_end.setdefault((lab, _find(state.vpar, state.tail[e]), 0), []).append(e)
        by_end.setdefault((lab, _find(state.vpar, state.head[e]), 1), []).append(e)
    return _pairs(by_end)


def face_conflicts(state: _FoldState) -> list[tuple[int, int]]:
    """Pairs of live faces of one relator with a side in the same slot."""
    by_slot: dict[tuple[int, int, int], list[int]] = {}
    for x in state._roots(state.fpar):
        rtype = state.ftype[x]
        for p, (e, _) in enumerate(state.boundary[x]):
            by_slot.setdefault((_find(state.epar, e), rtype, p), []).append(x)
    return _pairs(by_slot)


def run_rescan(state: _FoldState, rng: random.Random) -> None:
    """Recompute every conflict after each merge and apply one chosen
    uniformly by rng, graph and face conflicts alike; the forests are left
    flat, as _FoldState.run leaves them."""
    while True:
        merges = [(merge_edges, c) for c in graph_conflicts(state)]
        merges += [(merge_faces, c) for c in face_conflicts(state)]
        if not merges:
            break
        merge, pair = merges[rng.randrange(len(merges))]
        merge(state, *pair)
    _flatten(state.vpar, state.epar, state.fpar)


def rescan_fold(f: Morphism, rng: random.Random) -> tuple[Morphism, FoldTrace]:
    """Reference for folding.fold: the rescan engine, which reads no index.

    It recomputes the full conflict set after every merge and applies one
    conflict of either kind, chosen by rng, a graph conflict by
    merge_edges.  Its face merges need not merge boundaries, even before
    the skeleton is folded: the two boundaries stay in the skeleton, where
    the sides next to a shared slot share an endpoint, a label and a
    direction, so they form a graph conflict until merged, and by
    induction round the cycle the graph folds identify both boundaries.
    Every class keeps its least index as the root, so the quotient and the
    trace do not depend on rng, and the tests check that they equal
    fold()'s."""
    state = _FoldState(_checked(f))
    run_rescan(state, rng)
    return _finish(state), state.trace()


def unmerged_view(state: _FoldState) -> tuple:
    """What an unmerged fold state holds: its presentation, its compact
    form, its ids, its neighbour arrays and its queue of pairs."""
    ids = state.vids, state.eids, state.fids
    return state.presentation, state.unmerged, ids, state.neighbours(), list(state.pending)


def reference_immersion_witness(f: Morphism) -> ImmersionWitness | None:
    """Reference for complexes.immersion_witness: a walk over f's cells by
    id.  Vertex links key each edge's tail, then its head, by (vertex,
    label, direction), edges in order; edge links key every side of every
    face by (edge, (relator, position)), faces and positions in order.  The
    first repeated key is named with the cell that took it."""
    _checked(f)
    seen_end: dict[tuple[str, str, int], str] = {}
    for e in f.complex.edges:
        label = f.edge_labels[e.id]
        for vertex, direction in ((e.tail, 1), (e.head, -1)):
            key = (vertex, label, direction)
            if key in seen_end:
                return ImmersionWitness(
                    "vertex", vertex, (seen_end[key], label, direction), (e.id, label, direction)
                )
            seen_end[key] = e.id
    seen_slot: dict[tuple[str, tuple[int, int]], tuple[str, int]] = {}
    for face in f.complex.faces:
        for p, (eid, _) in enumerate(face.boundary):
            slot = (f.face_types[face.id], p)
            key = (eid, slot)
            if key in seen_slot:
                return ImmersionWitness("edge", eid, seen_slot[key] + slot, (face.id, p) + slot)
            seen_slot[key] = (face.id, p)
    return None


def reference_coupling_base(f: Morphism, face_type: int) -> tuple[_FoldState, list[str]]:
    """Reference for folding._coupling_base: the immersion f beside one
    closed cell of the given relator type, glued as a Morphism with fresh
    u*, c* and f* ids, which TwoComplex.make sorts among f's, and its
    unmerged fold state, with the cell's edge ids by relator position."""
    assert reference_immersion_witness(f) is None, "expected an immersion"
    word = f.presentation.relators[face_type]
    cx = f.complex
    taken = set(cx.vertices) | {e.id for e in cx.edges} | {x.id for x in cx.faces}
    n = len(word)
    poly_vertices = _fresh_ids(taken, "u", n)
    poly_edges = _fresh_ids(taken, "c", n)
    (face_id,) = _fresh_ids(taken, "f", 1)
    edges = list(cx.edges)
    labels = dict(f.edge_labels)
    boundary = []
    for q, (g, sign) in enumerate(word):
        eid = poly_edges[q]
        start, end = poly_vertices[q], poly_vertices[(q + 1) % n]
        edges.append(Edge(eid, start, end) if sign > 0 else Edge(eid, end, start))
        labels[eid] = g
        boundary.append((eid, sign))
    glued = Morphism(
        TwoComplex.make(
            list(cx.vertices) + poly_vertices, edges, list(cx.faces) + [Face(face_id, tuple(boundary))]
        ),
        f.presentation,
        labels,
        {**f.face_types, face_id: face_type},
    )
    return _FoldState(glued), poly_edges


class MapTarget(NamedTuple):
    """A family complex T indexed for the map check.  T immerses, so a
    relator read from a vertex traces at most one path through its
    neighbour arrays (_FoldState.neighbours): an edge of T is fixed by its
    (label, tail) and a face by its (relator, start vertex), so the check
    needs no table per edge or per face.  Nor per vertex: a T checked
    against the family formula has its vertex v_x at index x, and nv, its
    vertex count, is the modulus of the family map."""

    nv: int
    neighbours: list[list[int]]
    image: tuple[int, int, frozenset[int]]  # map_image of T itself


def map_target(state: _FoldState) -> MapTarget:
    """The unmerged state of a family complex T, indexed for the map check."""
    nv = state.unmerged.nv
    return MapTarget(nv, state.neighbours(), map_image(state, range(nv)))


def _starts(base: _FoldState) -> list[tuple[int, int]]:
    """The (relator, start vertex) of each face of the base, where the
    start of a face is the tail of its first side's edge, or its head for
    sign -1."""
    tail, head, faces = base.tail, base.head, zip(base.ftype, base.boundary)
    return [(ft, tail[e] if s > 0 else head[e]) for ft, ((e, s), *_) in faces]


def map_image(base: _FoldState, pi) -> tuple[int, int, frozenset[int]]:
    """What pi hits, read off the base's cells: the number of vertices, the
    number of edges, an edge counted by its (label, pi(tail)), and the
    (relator, pi(start)) of each face (_starts).  Each pair is keyed
    as one integer, pi(tail) * ngens + label for an edge and pi(start) *
    (number of relators) + relator for a face, which is one to one since
    label < ngens and relator < number of relators.  Under the identity
    this is T's own image, which the map check compares with a base's
    image under pi; base and T share the presentation."""
    ngens, nrel = base.ngens, len(base.presentation.relators)
    starts = frozenset(pi[x] * nrel + ft for ft, x in _starts(base))
    return len(set(pi)), len({pi[t] * ngens + g for t, g in zip(base.tail, base.elab)}), starts


def family_numbers(base: _FoldState) -> list[int]:
    """x for each family vertex v_x of the base, -1 for any other vertex."""
    return [int(v[1:]) if v[0] == "v" else -1 for v in base.vids]


def family_map(numbers: list[int], target: MapTarget) -> list[int]:
    """The family map on a base with these family numbers: v_x goes to
    v_(x mod |V(T)|) of T, whose index is x mod |V(T)| (MapTarget), any
    other vertex to -1."""
    n = target.nv
    return [x % n if x >= 0 else -1 for x in numbers]


def map_fibres(base: _FoldState, pi: list[int], target: MapTarget) -> list[int] | None:
    """If pi extends to a label-preserving cellular map of the base onto T,
    each base vertex's least fibre-mate, which is also what a flat vertex
    forest holds when its classes are the fibres; otherwise None.

    Every base edge (t, h, g) must have pi(h) as pi(t)'s g-neighbour in T:
    it then lands on T's one g-edge leaving pi(t).  A base face of relator
    r starting at s reads r round a path from s, so its edges land on a
    path reading r from pi(s) in T.  T immerses, so that path is the one
    trace of r from pi(s), and T's face at (r, pi(s)), if there is one,
    has exactly that boundary.  So the faces land, boundaries included,
    when the (r, pi(s)) of the base's faces are among T's; they are all of
    T's exactly when every face of T is hit.  Vertices and edges, an edge
    by its (label, pi(tail)), are hit when their counts are T's.  One
    routine, map_image, reads all three off the base under pi and off T
    under the identity, so pi is onto exactly when the two images are
    equal."""
    if -1 in pi:
        return None
    nb = target.neighbours
    if [nb[2 * g][pi[t]] for t, g in zip(base.tail, base.elab)] != [pi[h] for h in base.head]:
        return None
    if map_image(base, pi) != target.image:
        return None
    # the least vertex of each fibre: in reverse, the last write wins
    least = dict(zip(reversed(pi), range(len(pi) - 1, -1, -1)))
    return [least[y] for y in pi]


@functools.cache
def four_vertex_classes() -> list[Morphism]:
    """The 139 connected immersion classes with at most 4 vertices, free
    faces allowed."""
    return enumerate_immersions(EnumerationFilter(4, True, False))


@functools.cache
def folded_prefold(seed: int) -> Morphism:
    return fold(random_prefold(random.Random(seed)))[0]


def full_branch_closure(f: Morphism, max_faces: int) -> ClosureResult:
    """Reference closure search that branches on every free edge of every
    node.  Since every free edge branches, an identification of two free
    edges is generated from the smaller one only."""
    relators = f.presentation.relators
    seen = {canonical_key(_immersion_state(f).compact())[0]}
    queue = deque([(f, ())])
    results = []
    explored = pruned = max_depth = folds = duplicates = 0
    while queue:
        current, moves = queue.popleft()
        explored += 1
        max_depth = max(max_depth, len(moves))
        successors = []
        frees = sorted(free_faces(current.complex))
        free_set = set(frees)
        base = _immersion_state(current)
        glued = [_coupling_base(base, t) for t in range(len(relators))]
        for eid in frees:
            label = current.edge_labels[eid]
            for other in sorted(current.edge_labels):
                if other == eid or current.edge_labels[other] != label:
                    continue
                if other in free_set and other < eid:
                    continue
                state = _identify_edges_state(base, eid, other)
                successors.append((("identify-edges", eid, other), state))
            for t, word in enumerate(relators):
                cell_base, cell = glued[t]
                for p, (gen, _) in enumerate(word):
                    if gen == label:
                        state = _identify_edges_state(cell_base, cell[p], eid)
                        successors.append((("couple", t, p, eid), state))
        folds += len(successors)
        for move, state in successors:
            if state.live_face_count() > max_faces:
                pruned += 1
                continue
            key = canonical_key(state.compact())[0]
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            nxt = state.quotient()
            if immersion_witness(nxt) is not None:
                raise RuntimeError("full_branch_closure reached a non-immersion")
            if free_faces(nxt.complex):
                queue.append((nxt, moves + (move,)))
            else:
                results.append((nxt, moves + (move,)))
    results.sort(key=lambda pair: canonical_form(pair[0]))
    return ClosureResult(results, explored, pruned, max_depth, folds, duplicates)


def boundary_matrices(cx: TwoComplex) -> tuple[list[list[int]], list[list[int]]]:
    """(d1: vertices x edges, d2: edges x faces) with signed incidence counts."""
    vix = {v: k for k, v in enumerate(cx.vertices)}
    eix = {e.id: k for k, e in enumerate(cx.edges)}
    d1 = [[0] * len(cx.edges) for _ in cx.vertices]
    for j, e in enumerate(cx.edges):
        d1[vix[e.head]][j] += 1
        d1[vix[e.tail]][j] -= 1
    d2 = [[0] * len(cx.faces) for _ in cx.edges]
    for j, face in enumerate(cx.faces):
        for eid, sign in face.boundary:
            d2[eix[eid]][j] += sign
    return d1, d2


def dense_homology(cx: TwoComplex) -> HomologyProfile:
    """Reference homology: Smith normal form of the dense d1 and d2."""
    d1, d2 = boundary_matrices(cx)
    rank1 = len(smith_normal_form(d1))
    factors2 = smith_normal_form(d2)
    rank2 = len(factors2)
    return HomologyProfile(
        betti_0=len(cx.vertices) - rank1,
        betti_1=len(cx.edges) - rank1 - rank2,
        betti_2=len(cx.faces) - rank2,
        torsion_1=tuple(f for f in factors2 if f > 1),
    )


def exhaustive_bfs(c: Compact):
    """Reference for canonical._bfs: the same breadth-first key, with every
    base of least signature numbered and keyed in full."""
    ngens, nv = c.ngens, c.nv
    if not nv:
        return None
    head, tail = c.head, c.tail
    out = [-1] * (nv * ngens)
    into = [-1] * (nv * ngens)
    for e, (t, h, g) in enumerate(zip(tail, head, c.label)):
        if out[t * ngens + g] >= 0 or into[h * ngens + g] >= 0:
            return None
        out[t * ngens + g] = e
        into[h * ngens + g] = e
    nbrs = [[] for _ in range(nv)]
    signature = []
    for v in range(nv):
        sig = []
        for s in range(v * ngens, (v + 1) * ngens):
            eo, ei = out[s], into[s]
            if eo >= 0:
                nbrs[v].append(head[eo])
            if ei >= 0:
                nbrs[v].append(tail[ei])
            sig.append(2 * (eo >= 0) + (ei >= 0))
        signature.append(sig)
    least = min(signature)
    nf = len(c.ftype)
    best = None
    for base in range(nv):
        if signature[base] != least:
            continue
        vix = [-1] * nv
        vix[base] = 0
        order = [base]
        for v in order:
            for w in nbrs[v]:
                if vix[w] < 0:
                    vix[w] = len(order)
                    order.append(w)
        if len(order) != nv:
            return None
        eix = [0] * len(tail)
        erows = []
        for g in range(ngens):
            for k, v in enumerate(order):
                e = out[v * ngens + g]
                if e >= 0:
                    eix[e] = len(erows)
                    erows.append((g, k, vix[head[e]]))
        frows = [
            ((t, tuple([(eix[e], s) for e, s in sides])), x)
            for x, (t, sides) in enumerate(zip(c.ftype, c.boundary))
        ]
        frows.sort()
        key = (tuple(erows), tuple(row for row, _ in frows))
        if best is None or key < best[0]:
            fix = [0] * nf
            for k, (_, x) in enumerate(frows):
                fix[x] = k
            best = (key, vix, eix, fix)
    return best


def reference_face_table(n: int, sigma_a: dict[int, int]) -> list[_Trace]:
    """enumeration._face_table without forcing the last b-step: each start
    tries every choice of heads for all of its b-steps, in product order."""
    backward = {v: u for u, v in sigma_a.items()}
    table = []
    for rix, word in enumerate(target_presentation().relators):
        free = sum(gen == "b" for gen, _ in word)
        for start in range(n):
            for choice in product(range(n), repeat=free):
                ends = _free_trace(word, start, choice, sigma_a, backward)
                if ends is None:
                    continue
                edges = [
                    t if gen == "a" else _b_edge(n, t, h)
                    for (gen, _), (t, h) in zip(word, ends)
                ]
                table.append(_trace(rix, edges))
    return table


def reference_has_free_face(faces: list[_Trace]) -> bool:
    """Whether some edge has exactly one side among the faces, counted
    edge by edge off the faces' edge tuples."""
    return 1 in Counter(chain.from_iterable(face.edges for face in faces)).values()


def reference_two_core(faces: list[_Trace]) -> list[_Trace]:
    """enumeration._two_core with the sides counted edge by edge: drop
    every face with an edge that has fewer than two sides among the faces
    left, until none is dropped."""
    while True:
        sides = Counter(chain.from_iterable(face.edges for face in faces))
        thin = {e for e, count in sides.items() if count < 2}
        if not thin:
            return faces
        faces = [face for face in faces if thin.isdisjoint(face.edges)]


def reference_candidate_faces(sigma_a: dict[int, int], sigma_b: dict[int, int]):
    """Closed relator traces of the skeleton (sigma_a, sigma_b) as (type,
    sides), each relator traced by complexes.trace_relator from every vertex
    that has an edge carrying its first letter, in vertex order."""
    forward = {"a": sigma_a, "b": sigma_b}
    backward = {g: {v: u for u, v in table.items()} for g, table in forward.items()}
    candidates = []
    for rix, word in enumerate(target_presentation().relators):
        gen0, sign0 = word[0]
        for u in sorted((forward if sign0 > 0 else backward)[gen0]):
            tails = trace_relator(word, forward, backward, u)
            if tails is None:
                continue
            candidates.append(
                (rix, tuple((f"{g}{t}", s) for (g, s), t in zip(word, tails)))
            )
    return candidates


def _reference_subsets_with_types(candidates, required: frozenset[int]):
    pools = [[c for c in candidates if c[0] == t] for t in sorted(required)]
    masks = [range(1, 1 << len(pool)) for pool in pools]
    for choice in product(*masks):
        yield [
            cand
            for pool, mask in zip(pools, choice)
            for k, cand in enumerate(pool)
            if mask >> k & 1
        ]


def reference_components(n: int, sigma: dict[int, int]) -> tuple[int, ...]:
    """The components of the graph on range(n) with the edges u - sigma[u],
    found breadth first from each vertex not yet reached, in increasing
    order: each vertex is labelled by the least vertex of its component."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in sigma.items():
        adj[u].append(v)
        adj[v].append(u)
    labels: list[int | None] = [None] * n
    for root in range(n):
        if labels[root] is not None:
            continue
        labels[root] = root
        queue = deque([root])
        while queue:
            for w in adj[queue.popleft()]:
                if labels[w] is None:
                    labels[w] = root
                    queue.append(w)
    return tuple(labels)


def _reference_connected(n: int, sigma_a: dict, sigma_b: dict) -> bool:
    if n == 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for table in (sigma_a, sigma_b):
        for u, v in table.items():
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _reference_build(n, sigma_a, sigma_b, chosen) -> Morphism:
    vertices = [f"v{k}" for k in range(n)]
    edges, labels = [], {}
    for u, v in sorted(sigma_a.items()):
        edges.append(Edge(f"a{u}", f"v{u}", f"v{v}"))
        labels[f"a{u}"] = "a"
    for u, v in sorted(sigma_b.items()):
        edges.append(Edge(f"b{u}", f"v{u}", f"v{v}"))
        labels[f"b{u}"] = "b"
    faces, types = [], {}
    for k, (ftype, sides) in enumerate(chosen):
        faces.append(Face(f"f{k}", tuple(sides)))
        types[f"f{k}"] = ftype
    return Morphism(
        TwoComplex.make(vertices, edges, faces), target_presentation(), labels, types
    )


def reference_enumerate_by_types(
    max_vertices: int,
    type_sets: list[frozenset[int]],
    require_connected: bool = True,
    require_no_free_faces: bool = True,
) -> dict[frozenset[int], list[Morphism]]:
    """Reference walk for enumeration.enumerate_by_types: every skeleton
    pair is checked for connectivity, traced by reference_candidate_faces,
    and every face subset of every type set is tried; no budget."""
    found = {frozenset(types): {} for types in type_sets}
    for n in range(1, max_vertices + 1):
        b_skeletons = _partial_injections(n)
        for sigma_a, _ in _a_skeletons(n):
            for sigma_b in b_skeletons:
                if require_connected and not _reference_connected(n, sigma_a, sigma_b):
                    continue
                candidates = reference_candidate_faces(sigma_a, sigma_b)
                for types, classes in found.items():
                    for chosen in _reference_subsets_with_types(candidates, types):
                        if require_no_free_faces:
                            used: dict[str, int] = {}
                            for _, sides in chosen:
                                for eid, _ in sides:
                                    used[eid] = used.get(eid, 0) + 1
                            if 1 in used.values():
                                continue
                        morphism = _reference_build(n, sigma_a, sigma_b, chosen)
                        classes.setdefault(canonical_form(morphism), morphism)
    return {t: [classes[k] for k in sorted(classes)] for t, classes in found.items()}
