"""Quotient-and-fold engine.

Folding turns an arbitrary combinatorial map into a locally injective one
by repeatedly merging cells that witness a failure of local injectivity:

  graph fold   two edges with the same label sharing the corresponding
               endpoint are merged, merging their other endpoints;
  face fold    two faces of one relator with a side in the same slot (an
               edge and a relator position) are merged.

Each applied merge strictly decreases the number of live cells, so the
process terminates, and both rules are forced in any immersion quotient,
so the fixpoint does not depend on processing order.  The one engine,
_FoldState.run, unions vertex classes only; every other class is read off
the vertex classes by key.

fold() folds in three passes.  First it folds the 1-skeleton as a
congruence closure on vertices under the partial maps sigma_g and their
inverses (Downey, Sethi & Tarjan, "Variations on the common subexpression
problem", J. ACM 1980): it unions vertex classes only, draining a queue
of vertex pairs that one flat index finds, which holds one neighbour per
(vertex, label, direction) key; see _FoldState.  With union-find
resolving stale neighbours this is the near-linear folding of Touikan,
"A fast algorithm for Stallings' folding process" (IJAC 2006), less the
edge unions.  Once the vertex classes are closed, two edges are one edge
of the folded skeleton exactly when they share a label and a tail class:
the closure has put their heads in one class, and a graph fold never
merges edges whose tails or labels differ.  So the second pass reads the
edge classes off in index order, by (tail root, label).

The third pass merges the faces.  In a folded skeleton every vertex
has at most one edge per (label, direction), so a relator read from a
given edge traces a unique path (Stallings, "Topology of finite graphs",
Invent. Math. 1983).  A face's sides read its relator round a closed path
with the relator's letters and signs (validate checks this), so two
faces of one relator that share the slot at position p share the slot at
p + 1, and by induction every slot: their boundaries are already equal
and a face fold merges no edge.  Hence faces that share any slot share
the first one, and the pass keys each face, in index order, by (relator,
class of its first boundary edge); the key is exact, and each face joins
the least face holding its key.  No graph conflict appears afterwards,
so that is the fixpoint.

The tests keep a rescan engine as the reference (tests/helpers.py): it
recomputes every conflict after each merge and applies one in a random
order, and its quotients and traces must agree with fold()'s.

Internally cells are numbered in shortlex id order, so keeping the least
integer of a merged class as its representative is the same rule as
keeping the shortlex-least id.  Numbering the live roots in that order
gives compact(), the quotient in the integer form of complexes.Compact,
its cells named by their roots' ids (root_ids).  A state is built from a
Morphism through complexes._compact, or straight from a compact form and
its ids (_FoldState.from_compact), as the family builder, the glue of a
coupling base and the closure search build theirs: the search keys each
folded state's compact form, keeps a new one as the unmerged state of
that form, and builds a Morphism only for a result.

_check_immersion raises the first failure that complexes._first_failure,
the library's one immersion check, finds on the compact form of a folded
or built complex, named by cell id; _finish runs it before it builds the
quotient's Morphism, and the closure search's new nodes and the family
builder run it on the compact form alone.  _immersion_state runs the
same check on the unmerged state of a Morphism that a move starts from,
so the move compacts its input once.

Every move identifies one pair of cells in a copy of a prebuilt,
unmerged state and folds.  Vertex and edge identification copy the state
of the immersion itself.  An edge identification unions the two edges'
tails and their heads; the edge pass then puts the two edges in one
class, since they share a label and a tail class.  Coupling copies the
state of the immersion beside one closed cell of the relator, not yet
attached (_coupling_base), and identifies the cell's edge at the given
position with the given edge: the glued base depends on neither, so one
base serves every coupling of one relator onto one immersion.  The glue
reads the immersion's unmerged state, not a Morphism: it appends the
cell's vertices, edges and face to the compact form and renumbers every
sort in shortlex id order, the fresh u*, c* and f* ids among the
existing ones.

Every class keeps its least index as the root, whether a union or a
keyed pass made it, so the union-find forest is the quotient map
whatever the merge order.  run() leaves the forests flat, each cell
pointing at its root, and compact() and trace() read roots from them
directly.  The FoldTrace is read off them: each absorbed cell with the
output cell it became, vertices, then edges, then faces, each in index
order.  Every merge order gives the same trace, and replaying it as raw
unions reproduces the folded output from the input.
"""

from __future__ import annotations

import copy
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .complexes import (
    ComplexError,
    Compact,
    Morphism,
    _checked,
    _compact,
    _first_failure,
    _ids,
    _morphism,
    id_key,
)


MERGE_KINDS = ("vertex-merge", "edge-merge", "face-merge")


@dataclass(frozen=True)
class MergeEvent:
    kind: str  # one of MERGE_KINDS
    survivor: str
    absorbed: str

    def __post_init__(self):
        if self.kind not in MERGE_KINDS:
            raise ComplexError(f"unknown merge kind in {self}")


@dataclass(frozen=True)
class FoldTrace:
    """The quotient map on absorbed cells: one event per absorbed cell,
    whose survivor is the output cell it became.  Events come vertices,
    then edges, then faces, each in index order."""

    events: tuple[MergeEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def to_json_lines(self) -> str:
        return "".join(
            json.dumps(
                {"kind": ev.kind, "survivor": ev.survivor, "absorbed": ev.absorbed}
            )
            + "\n"
            for ev in self.events
        )


def _find(parent: list[int], x: int) -> int:
    p = parent[x]
    while p != parent[p]:
        p = parent[p]
    while parent[x] != p:
        parent[x], x = p, parent[x]
    return p


def _flatten(*forests: list[int]) -> None:
    """Point every cell at its root.  A root is the least index of its
    class, so a parent precedes its child and one pass in index order
    finds every parent already flat."""
    for parent in forests:
        for x, p in enumerate(parent):
            parent[x] = parent[p]


class _FoldState:
    """Union-find over the three sorts plus one flat incidence index on
    vertices.

    Every incidence key is one integer into a flat list: end_rep[(vertex *
    ngens + label) * 2 + direction] holds the vertex at the other end of
    one edge with that label at that endpoint (direction 0 when the vertex
    is the edge's tail, so the head is held, 1 when it is the head), or -1.
    neighbours() hands the index out as one array per key, so no other
    module depends on this layout.

    One neighbour per key is enough.  In a folded skeleton a key has at
    most one edge, so the other ends of all edges with one key lie in one
    class, and each such pair is forced.  An edge whose key is filled
    queues the pair (held vertex, its own other end).  When a vertex class
    is absorbed, each of its keys moves to the survivor's, or, if that key
    is filled, queues the pair of both held vertices unless they share a
    parent and so a class already.  So for every root and key, the other
    end of each edge with that key is in the held vertex's class or linked
    to it through queued pairs.  When the queue is empty the links are
    unions, no key reaches two classes, and the vertex classes are those
    of the folded skeleton: the least equivalence that contains the moves
    and is closed under the partial maps.  A held vertex goes stale when
    its class is absorbed; its entry is neither discarded nor updated, and
    merge_vertices resolves every pair to its roots.

    Edges and faces need no index and no merge: once the queue is empty,
    run reads their classes off in keyed passes (see the module
    docstring), so merge_vertices is the one merge primitive, and every
    move is one or two calls of it.

    copy() gives an independent state at the same point of folding, so a
    caller that makes many moves on one input builds its state once and
    folds a copy per move.
    """

    VERTEX, EDGE, FACE = MERGE_KINDS

    def __init__(self, f: Morphism):
        """The unmerged state of f, through its compact form."""
        self._load(_compact(f), f.presentation, _ids(f))

    @classmethod
    def from_compact(cls, c: Compact, presentation, ids) -> "_FoldState":
        """The unmerged state of the compact complex c over presentation,
        whose cells are named by ids = (vertex ids, edge ids, face ids),
        each list in c's numbering and so in shortlex order."""
        state = cls.__new__(cls)
        state._load(c, presentation, ids)
        return state

    def _load(self, c: Compact, presentation, ids) -> None:
        self.unmerged = c  # compact() before any merge
        self.presentation = presentation
        self.ngens = c.ngens
        self.vids, self.eids, self.fids = ids
        self.tail, self.head, self.elab = c.tail, c.head, c.label
        self.ftype, self.boundary = c.ftype, c.boundary
        self.vpar = list(range(c.nv))
        self.epar = list(range(len(c.tail)))
        self.fpar = list(range(len(c.ftype)))
        self.pending = pending = deque()
        ngens2 = self.ngens * 2
        self.end_rep = end_rep = [-1] * (c.nv * ngens2)
        for t, h, g in zip(c.tail, c.head, c.label):
            for key, other in ((t * ngens2 + 2 * g, h), (h * ngens2 + 2 * g + 1, t)):
                if end_rep[key] < 0:
                    end_rep[key] = other
                else:
                    pending.append((end_rep[key], other))

    def copy(self) -> "_FoldState":
        """Copies the union-find arrays, the flat index and the queue; the
        input cells (tail, head, elab, ftype, boundary, their compact form
        and the ids) and the name indexes are never written, so they are
        shared."""
        twin = copy.copy(self)
        for name in ("vpar", "epar", "fpar", "end_rep"):
            setattr(twin, name, getattr(self, name).copy())
        twin.pending = deque(self.pending)
        return twin

    @cached_property
    def vertex_ix(self) -> dict[str, int]:
        return {x: k for k, x in enumerate(self.vids)}

    @cached_property
    def edge_ix(self) -> dict[str, int]:
        return {x: k for k, x in enumerate(self.eids)}

    # -- merges ------------------------------------------------------------

    def merge_vertices(self, u: int, v: int) -> None:
        vpar = self.vpar
        # most parents are roots, so only a deeper vertex calls _find
        ru, rv = vpar[u], vpar[v]
        if vpar[ru] != ru or vpar[rv] != rv:
            ru, rv = _find(vpar, u), _find(vpar, v)
        if ru == rv:
            return
        survivor, absorbed = (ru, rv) if ru < rv else (rv, ru)
        vpar[absorbed] = survivor
        # move the absorbed class's keys onto the survivor's, queuing both
        # neighbours where the survivor's key is filled
        end_rep, width = self.end_rep, self.ngens * 2
        src, dst = absorbed * width, survivor * width
        for k in range(width):
            held = end_rep[src + k]
            if held >= 0:
                if end_rep[dst + k] < 0:
                    end_rep[dst + k] = held
                elif vpar[end_rep[dst + k]] != vpar[held]:
                    self.pending.append((end_rep[dst + k], held))

    # -- engine --------------------------------------------------------------

    def run(self) -> None:
        """Close the vertex classes by draining the queue, then read the
        edge classes off by (tail root, label) and the face classes by
        (relator, first edge root), each cell joining the least cell with
        its key; the module docstring argues both keys are exact."""
        pending, merge = self.pending, self.merge_vertices
        while pending:
            merge(*pending.popleft())
        vpar, epar, fpar, ngens = self.vpar, self.epar, self.fpar, self.ngens
        _flatten(vpar)
        edges: dict[int, int] = {}
        for e, (t, g) in enumerate(zip(self.tail, self.elab)):
            epar[e] = edges.setdefault(vpar[t] * ngens + g, e)
        faces: dict[tuple[int, int], int] = {}
        for x, (t, sides) in enumerate(zip(self.ftype, self.boundary)):
            fpar[x] = faces.setdefault((t, epar[sides[0][0]]), x)

    def _roots(self, parent: list[int]) -> list[int]:
        return [x for x, p in enumerate(parent) if p == x]

    # -- state queries (used by searches to avoid materializing quotients) ----

    def live_face_count(self) -> int:
        return len(self._roots(self.fpar))

    def neighbours(self) -> list[list[int]]:
        """One array per (label, direction) key: each vertex's neighbour
        under it, or -1.  Key 2 * label leaves by the label's edge and holds
        its head, so key 0 is sigma_a; key 2 * label + 1 enters by it and
        holds its tail.  On an unmerged state of an immersion each key has
        at most one edge, so these are the partial maps sigma_g and their
        inverses."""
        width = 2 * self.ngens
        return [self.end_rep[k::width] for k in range(width)]

    def compact(self) -> Compact:
        """The live quotient in compact form, cells numbered by their roots
        in index order; quotient() names each cell by its root's id.  It
        reads roots straight off the forests, which run leaves flat."""
        vpar, epar = self.vpar, self.epar
        vroots, eroots = self._roots(vpar), self._roots(epar)
        froots = self._roots(self.fpar)
        vix = {v: k for k, v in enumerate(vroots)}
        eix = {e: k for k, e in enumerate(eroots)}
        return Compact(
            self.ngens,
            len(vroots),
            [vix[vpar[self.tail[e]]] for e in eroots],
            [vix[vpar[self.head[e]]] for e in eroots],
            [self.elab[e] for e in eroots],
            [self.ftype[x] for x in froots],
            [[(eix[epar[e]], s) for e, s in self.boundary[x]] for x in froots],
        )

    # -- extraction ----------------------------------------------------------

    def trace(self) -> FoldTrace:
        """Each non-root cell with its root, read off the flat forests."""
        return FoldTrace(
            tuple(
                MergeEvent(kind, ids[p], ids[x])
                for kind, parent, ids in (
                    (self.VERTEX, self.vpar, self.vids),
                    (self.EDGE, self.epar, self.eids),
                    (self.FACE, self.fpar, self.fids),
                )
                for x, p in enumerate(parent)
                if p != x
            )
        )

    def root_ids(self) -> tuple[list[str], list[str], list[str]]:
        """The ids of compact()'s cells, each cell named by its root's id:
        the roots come in index order, so each list is in shortlex order."""
        return (
            [self.vids[v] for v in self._roots(self.vpar)],
            [self.eids[e] for e in self._roots(self.epar)],
            [self.fids[x] for x in self._roots(self.fpar)],
        )

    def quotient(self) -> Morphism:
        return _morphism(self.compact(), self.presentation, self.root_ids())


def _check_immersion(
    c: Compact, presentation, ids, failure: str = "folding ended at a non-immersion"
) -> None:
    """Raise RuntimeError, the message failure and the first problem, when
    the compact complex c, whose cells are named by ids = (vertex ids, edge
    ids, face ids), does not immerse over presentation: the first failure
    of complexes._first_failure, in its order (vertex links, boundaries,
    edge links)."""
    witness = _first_failure(c, presentation, ids)
    if witness is None:
        return
    if witness.kind == "vertex":
        problem = f"skeleton not folded at edge {witness.second[0]}"
    elif witness.kind == "face":
        problem = f"face {witness.cell} does not read its relator on a closed path"
    else:
        problem = f"two sides of {witness.cell} share a slot {witness.first[2:]}"
    raise RuntimeError(f"{failure}: {problem}")


def _finish(state: _FoldState) -> Morphism:
    _check_immersion(state.compact(), state.presentation, state.root_ids())
    return state.quotient()


def fold(f: Morphism) -> tuple[Morphism, FoldTrace]:
    """Fold to an immersion; returns the quotient and its trace."""
    state = _FoldState(_checked(f))
    state.run()
    return _finish(state), state.trace()


def replay_trace(f: Morphism, trace: FoldTrace) -> Morphism:
    """Apply the recorded merges as raw unions and extract the quotient."""
    state = _FoldState(_checked(f))
    sorts = {
        state.VERTEX: (state.vpar, state.vertex_ix),
        state.EDGE: (state.epar, state.edge_ix),
        state.FACE: (state.fpar, {x: k for k, x in enumerate(state.fids)}),
    }
    for ev in trace.events:
        parent, table = sorts[ev.kind]
        if ev.survivor not in table or ev.absorbed not in table:
            raise ComplexError(f"{ev} names a cell the input does not have")
        a, b = _find(parent, table[ev.survivor]), _find(parent, table[ev.absorbed])
        if a != b:
            parent[max(a, b)] = min(a, b)
    _flatten(state.vpar, state.epar, state.fpar)
    return state.quotient()


def _immersion_state(f: Morphism) -> _FoldState:
    """The unmerged fold state of an immersion, the base that the moves on
    it copy; ComplexError unless f is a valid morphism that immerses."""
    state = _FoldState(_checked(f))
    witness = _first_failure(state.unmerged, f.presentation, (state.vids, state.eids, state.fids))
    if witness is not None:
        raise ComplexError(f"expected an immersion, but {witness}")
    return state


def _identify_vertices_state(base: _FoldState, u: str, v: str) -> _FoldState:
    """A folded copy of the unmerged state base with u = v."""
    if u == v:
        raise ComplexError("identify_vertices needs two distinct vertices")
    vix = base.vertex_ix
    if u not in vix or v not in vix:
        raise ComplexError("identify_vertices: unknown vertex")
    state = base.copy()
    state.merge_vertices(vix[u], vix[v])
    state.run()
    return state


def identify_vertices(f: Morphism, u: str, v: str) -> Morphism:
    """Quotient u = v in an immersion, then fold."""
    return _finish(_identify_vertices_state(_immersion_state(f), u, v))


def _identify_edges_state(base: _FoldState, e1: str, e2: str) -> _FoldState:
    """A folded copy of the unmerged state base with e1 = e2."""
    eix = base.edge_ix
    if e1 not in eix or e2 not in eix:
        raise ComplexError("identify_edges: unknown edge")
    x1, x2 = eix[e1], eix[e2]
    if base.elab[x1] != base.elab[x2]:
        gens = base.presentation.generators
        raise ComplexError(
            f"identify_edges: labels differ "
            f"({gens[base.elab[x1]]!r} vs {gens[base.elab[x2]]!r})"
        )
    state = base.copy()
    state.merge_vertices(base.tail[x1], base.tail[x2])
    state.merge_vertices(base.head[x1], base.head[x2])
    state.run()
    return state


def identify_edges(f: Morphism, e1: str, e2: str) -> Morphism:
    """Quotient two same-labeled edges (endpoints included), then fold."""
    return _finish(_identify_edges_state(_immersion_state(f), e1, e2))


def _fresh_ids(taken: set[str], prefix: str, count: int) -> list[str]:
    out = []
    n = 0
    while len(out) < count:
        cand = f"{prefix}{n}"
        if cand not in taken:
            taken.add(cand)
            out.append(cand)
        n += 1
    return out


def _shortlex(ids: list[str]) -> tuple[list[int], list[int]]:
    """The indices of ids in shortlex order of the ids, and the place of
    each index in that order."""
    order = sorted(range(len(ids)), key=lambda k: id_key(ids[k]))
    rank = [0] * len(ids)
    for k, old in enumerate(order):
        rank[old] = k
    return order, rank


def _coupling_base(base: _FoldState, face_type: int) -> tuple[_FoldState, list[str]]:
    """The unmerged fold state of the immersion whose unmerged state is
    base, beside one closed cell of the given relator type, not yet
    attached, and the cell's edge ids by relator position.  Its fresh ids
    depend on base's ids and the relator length alone, so coupling at
    (position, edge) is the identification of cell[position] with edge in
    a copy of it, for every position and edge.  The fresh u*, c* and f*
    ids sort among the existing ones, so every sort is renumbered in
    shortlex id order, the numbering of every state."""
    relators = base.presentation.relators
    if not 0 <= face_type < len(relators):
        raise ComplexError(f"unknown relator type {face_type}")
    word = relators[face_type]
    taken = set(base.vids) | set(base.eids) | set(base.fids)
    n = len(word)
    poly_vertices = _fresh_ids(taken, "u", n)
    poly_edges = _fresh_ids(taken, "c", n)
    poly_face = _fresh_ids(taken, "f", 1)

    c = base.unmerged
    gen_ix = {g: k for k, g in enumerate(base.presentation.generators)}
    tail, head, label = list(c.tail), list(c.head), list(c.label)
    for q, (g, sign) in enumerate(word):
        start, end = c.nv + q, c.nv + (q + 1) % n
        tail.append(start if sign > 0 else end)
        head.append(end if sign > 0 else start)
        label.append(gen_ix[g])
    boundary = c.boundary + [[(len(c.tail) + q, sign) for q, (_, sign) in enumerate(word)]]
    ftype = c.ftype + [face_type]

    vids, eids, fids = base.vids + poly_vertices, base.eids + poly_edges, base.fids + poly_face
    vorder, vrank = _shortlex(vids)
    eorder, erank = _shortlex(eids)
    forder, _ = _shortlex(fids)
    glued = Compact(
        c.ngens,
        len(vids),
        [vrank[tail[e]] for e in eorder],
        [vrank[head[e]] for e in eorder],
        [label[e] for e in eorder],
        [ftype[x] for x in forder],
        [[(erank[e], sign) for e, sign in boundary[x]] for x in forder],
    )
    ids = [vids[v] for v in vorder], [eids[e] for e in eorder], [fids[x] for x in forder]
    return _FoldState.from_compact(glued, base.presentation, ids), poly_edges


def couple(f: Morphism, face_type: int, position: int, edge_id: str) -> Morphism:
    """Glue one closed 2-cell of the given type to an immersion along one
    edge (matched to the relator occurrence at `position`) and fold."""
    base, cell = _coupling_base(_immersion_state(f), face_type)
    if not 0 <= position < len(cell):
        raise ComplexError(f"position {position} outside relator of length {len(cell)}")
    if edge_id not in f.edge_labels:
        raise ComplexError(f"unknown edge {edge_id}")
    gen, _ = f.presentation.relators[face_type][position]
    if f.edge_labels[edge_id] != gen:
        raise ComplexError(
            f"label mismatch at position {position}: relator letter is {gen!r}, "
            f"edge {edge_id} is labeled {f.edge_labels[edge_id]!r}"
        )
    return _finish(_identify_edges_state(base, cell[position], edge_id))
