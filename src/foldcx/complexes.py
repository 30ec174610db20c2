"""Combinatorial 2-complexes and combinatorial maps onto a presentation complex.

Cells are named by strings.  Wherever a deterministic choice among ids is
needed (quotients keep the smallest id of a merged class, conflicts are
processed smallest first) ids are compared in shortlex order: by length,
then lexicographically.

A face boundary is a cyclic sequence of signed edges, stored as a tuple of
(edge_id, sign) starting at a fixed position 0.  A Morphism labels every
edge with a generator of the target presentation (orientation normalized
so the label is always read with sign +1 along the edge) and assigns every
face a relator index; position p of the face's boundary must carry exactly
the letter at position p of that relator.  Side positions are therefore
absolute: the slot of a face side is the pair (relator index, position).

Compact is the integer form of a labeled complex that the rest of the
library works on: Morphism gives it through _compact, which _morphism
inverts given the cell ids (_ids), and the fold engine's _FoldState
through its compact method; canonical_key keys it.  Immersion is checked
once, on that form (_first_failure), and immersion_witness checks a
Morphism through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .presentations import Presentation, Word, format_word, is_proper_power

SignedEdge = tuple[str, int]


def id_key(cell_id: str) -> tuple[int, str]:
    """Shortlex sort key used for every deterministic choice among ids."""
    return (len(cell_id), cell_id)


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Face:
    id: str
    boundary: tuple[SignedEdge, ...]


class ComplexError(ValueError):
    """Raised when a complex or morphism violates a structural precondition."""


@dataclass(frozen=True)
class TwoComplex:
    """Vertices, directed edges and faces with closed attaching boundaries."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    faces: tuple[Face, ...]

    @staticmethod
    def make(vertices, edges, faces) -> "TwoComplex":
        """Normalize inputs: sort each sort by id and check referential integrity."""
        vs = tuple(sorted(vertices, key=id_key))
        es = tuple(sorted(edges, key=lambda e: id_key(e.id)))
        fs = tuple(sorted(faces, key=lambda f: id_key(f.id)))
        cx = TwoComplex(vs, es, fs)
        if cx.structural_violations:
            raise ComplexError("; ".join(cx.structural_violations))
        return cx

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def face_by_id(self) -> dict[str, Face]:
        return {f.id: f for f in self.faces}

    @cached_property
    def structural_violations(self) -> list[str]:
        out = []
        if len(set(self.vertices)) != len(self.vertices):
            out.append("duplicate vertex id")
        if len({e.id for e in self.edges}) != len(self.edges):
            out.append("duplicate edge id")
        if len({f.id for f in self.faces}) != len(self.faces):
            out.append("duplicate face id")
        vset = set(self.vertices)
        eids = {e.id for e in self.edges}
        for e in self.edges:
            if e.tail not in vset or e.head not in vset:
                out.append(f"edge {e.id} references missing vertex")
        for f in self.faces:
            if not f.boundary:
                out.append(f"face {f.id} has empty boundary")
                continue
            for eid, sign in f.boundary:
                if eid not in eids:
                    out.append(f"face {f.id} references missing edge {eid}")
                if sign not in (1, -1):
                    out.append(f"face {f.id} has a side with sign {sign}")
            if not out or all(eid in eids for eid, _ in f.boundary):
                path_ok = True
                n = len(f.boundary)
                for p in range(n):
                    eid, sign = f.boundary[p]
                    nid, nsign = f.boundary[(p + 1) % n]
                    e, ne = self.edge_by_id[eid], self.edge_by_id[nid]
                    end = e.head if sign > 0 else e.tail
                    start = ne.tail if nsign > 0 else ne.head
                    if end != start:
                        path_ok = False
                if not path_ok:
                    out.append(f"face {f.id} boundary is not a closed edge path")
        return out

    def edge_face_occurrences(self) -> dict[str, int]:
        """Total occurrence count of each edge over all face boundaries."""
        counts = {e.id: 0 for e in self.edges}
        for f in self.faces:
            for eid, _ in f.boundary:
                counts[eid] += 1
        return counts

    @cached_property
    def spanning_forest(self) -> frozenset[str]:
        """Edge ids of a spanning forest of the 1-skeleton.

        One breadth-first tree per component, rooted at the component's
        first vertex; each vertex takes its neighbours in sorted (vertex,
        edge id) order.  The forest has one edge fewer than the vertices
        per component, so it counts the components too.
        """
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append((e.head, e.id))
            adj[e.head].append((e.tail, e.id))
        tree: set[str] = set()
        seen: set[str] = set()
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            queue = deque([root])
            while queue:
                for w, eid in sorted(adj[queue.popleft()]):
                    if w not in seen:
                        seen.add(w)
                        tree.add(eid)
                        queue.append(w)
        return frozenset(tree)

    @property
    def connected(self) -> bool:
        return len(self.spanning_forest) >= len(self.vertices) - 1


def euler_characteristic(cx: TwoComplex) -> int:
    return len(cx.vertices) - len(cx.edges) + len(cx.faces)


def average_curvature(cx: TwoComplex) -> Fraction:
    """Euler characteristic divided by the number of 2-cells, exactly."""
    if not cx.faces:
        raise ComplexError("average curvature needs at least one face")
    return Fraction(euler_characteristic(cx), len(cx.faces))


def free_faces(cx: TwoComplex) -> set[str]:
    """Edges that occur exactly once, with multiplicity, over all boundaries."""
    return {eid for eid, n in cx.edge_face_occurrences().items() if n == 1}


def collapse_free_face(cx: TwoComplex, edge_id: str) -> TwoComplex:
    """Remove a free edge together with its unique incident face."""
    if edge_id not in free_faces(cx):
        raise ComplexError(f"edge {edge_id} is not a free face")
    (face,) = [f for f in cx.faces if any(eid == edge_id for eid, _ in f.boundary)]
    return TwoComplex.make(
        cx.vertices,
        [e for e in cx.edges if e.id != edge_id],
        [f for f in cx.faces if f.id != face.id],
    )


@dataclass(frozen=True)
class Morphism:
    """A combinatorial map from `complex` to the 2-complex of `presentation`.

    edge_labels maps each edge id to a generator (the edge is oriented so
    its label reads forward); face_types maps each face id to a relator
    index.  validate() reports every violated invariant instead of raising.
    """

    complex: TwoComplex
    presentation: Presentation
    edge_labels: dict[str, str]
    face_types: dict[str, int]

    def __post_init__(self):
        for word in self.presentation.relators:
            if is_proper_power(word):
                raise ComplexError(
                    "target relator {!r} is a proper power; side positions "
                    "would be ambiguous".format(format_word(word))
                )


def validate(f: Morphism) -> list[str]:
    """All violated invariants of the morphism, empty when valid."""
    out = list(f.complex.structural_violations)
    gens = set(f.presentation.generators)
    for e in f.complex.edges:
        label = f.edge_labels.get(e.id)
        if label is None:
            out.append(f"edge {e.id} has no label")
        elif label not in gens:
            out.append(f"edge {e.id} labeled with undeclared generator {label!r}")
    for face in f.complex.faces:
        rix = f.face_types.get(face.id)
        if rix is None:
            out.append(f"face {face.id} has no relator type")
            continue
        if not 0 <= rix < len(f.presentation.relators):
            out.append(f"face {face.id} has unknown relator type {rix}")
            continue
        word = f.presentation.relators[rix]
        if len(face.boundary) != len(word):
            out.append(
                f"face {face.id}: boundary/relator length mismatch "
                f"({len(face.boundary)} != {len(word)})"
            )
            continue
        for p, (eid, sign) in enumerate(face.boundary):
            label = f.edge_labels.get(eid)
            if label is None:
                continue
            gen, wsign = word[p]
            if label != gen or sign != wsign:
                out.append(
                    f"face {face.id} position {p} reads "
                    f"({label},{sign:+d}), relator has ({gen},{wsign:+d})"
                )
    return out


class Compact(NamedTuple):
    """A labeled complex over integers: cells are numbered in shortlex id
    order, edge labels and face types are generator and relator indices,
    and boundaries list (edge index, sign) pairs."""

    ngens: int
    nv: int
    tail: list[int]
    head: list[int]
    label: list[int]
    ftype: list[int]
    boundary: list[list[tuple[int, int]]]


def _compact(f: Morphism) -> Compact:
    cx = f.complex
    gen_ix = {g: k for k, g in enumerate(f.presentation.generators)}
    vix = {v: k for k, v in enumerate(cx.vertices)}
    eix = {e.id: k for k, e in enumerate(cx.edges)}
    return Compact(
        len(gen_ix),
        len(vix),
        [vix[e.tail] for e in cx.edges],
        [vix[e.head] for e in cx.edges],
        [gen_ix[f.edge_labels[e.id]] for e in cx.edges],
        [f.face_types[x.id] for x in cx.faces],
        [[(eix[eid], sign) for eid, sign in x.boundary] for x in cx.faces],
    )


def _ids(f: Morphism) -> tuple[list[str], list[str], list[str]]:
    """The ids of f's vertices, edges and faces, each list in _compact's
    numbering."""
    cx = f.complex
    return list(cx.vertices), [e.id for e in cx.edges], [x.id for x in cx.faces]


def _morphism(c: Compact, presentation, ids) -> Morphism:
    """The inverse of _compact: the Morphism over presentation of the
    compact complex c whose cells are named by ids = (vertex ids, edge ids,
    face ids), each list in c's numbering and so in shortlex order."""
    vids, eids, fids = ids
    gens = presentation.generators
    cx = TwoComplex.make(
        vids,
        [Edge(e, vids[t], vids[h]) for e, t, h in zip(eids, c.tail, c.head)],
        [Face(x, tuple([(eids[e], s) for e, s in sides])) for x, sides in zip(fids, c.boundary)],
    )
    return Morphism(
        cx,
        presentation,
        {e: gens[g] for e, g in zip(eids, c.label)},
        dict(zip(fids, c.ftype)),
    )


def _words(presentation) -> list[list[tuple[int, int]]]:
    """Each relator as its (generator index, sign) pairs."""
    gens = presentation.generators
    return [[(gens.index(g), s) for g, s in word] for word in presentation.relators]


def _checked(f: Morphism) -> Morphism:
    """f, unless validate finds a problem: then ComplexError naming all."""
    problems = validate(f)
    if problems:
        raise ComplexError("invalid morphism: " + "; ".join(problems))
    return f


@dataclass(frozen=True)
class ImmersionWitness:
    """Names the cell where local injectivity fails and the colliding pair."""

    kind: str  # "vertex", "edge", or "face" (a boundary off its relator; no pair)
    cell: str
    first: tuple
    second: tuple

    def __str__(self) -> str:
        return (
            f"{self.kind} {self.cell}: side {self.first} collides with {self.second}"
        )


def _first_failure(c: Compact, presentation, ids) -> ImmersionWitness | None:
    """The first local-injectivity failure of the compact complex c over
    presentation, its cells named by ids = (vertex ids, edge ids, face
    ids), or None when c immerses.  In order:

      vertex links  no two edges of one label leave, or enter, one vertex:
                    the skeleton is folded.  Edges are walked in index
                    order, each at its tail (direction 1), then its head
                    (-1), and the first edge whose (vertex, label,
                    direction) is taken is named with the edge that took
                    it; the walk runs only once a set size shows a repeat.
      boundaries    each face reads its relator's letters and signs round
                    a closed path; a "face" witness names the first face
                    that does not, with no pair.
      edge links    no two sides of one edge in one (relator, position)
                    slot.  In a folded skeleton a face's boundary is the
                    one trace of its relator through any of its sides
                    (Stallings 1983; see folding), so two faces of one
                    relator that share a slot share every slot, the first
                    included.  So the links are checked by (relator, first
                    edge), and the first face that repeats an earlier
                    face's key is named at its position 0, with that
                    earlier face: the first collision a walk over every
                    side, faces in index order, would meet.  Each side
                    is named (face, position, relator, position)."""
    vids, eids, fids = ids
    tail, head, label = c.tail, c.head, c.label
    outs, ins = list(zip(tail, label)), list(zip(head, label))
    if len(set(outs)) < len(outs) or len(set(ins)) < len(ins):
        taken: dict[tuple[int, int, int], int] = {}
        for e, (t, h, g) in enumerate(zip(tail, head, label)):
            for v, direction in ((t, 1), (h, -1)):
                held = taken.setdefault((v, g, direction), e)
                if held != e:
                    gen = presentation.generators[g]
                    return ImmersionWitness(
                        "vertex", vids[v], (eids[held], gen, direction), (eids[e], gen, direction)
                    )
    words, firsts = _words(presentation), {}
    ends = {1: (tail, head), -1: (head, tail)}  # (start, stop) of each edge by sign
    for x, (t, sides) in enumerate(zip(c.ftype, c.boundary)):
        e, s = sides[-1]
        at = ends[s][1][e]  # where the last side stops and so the first starts
        closed = len(sides) == len(words[t])
        for (e, s), (g, sign) in zip(sides, words[t]):
            start, stop = ends[s]
            closed = closed and start[e] == at and label[e] == g and s == sign
            at = stop[e]
        if not closed:
            return ImmersionWitness("face", fids[x], (), ())
        held = firsts.setdefault((t, sides[0][0]), x)
        if held != x:
            return ImmersionWitness(
                "edge", eids[sides[0][0]], (fids[held], 0, t, 0), (fids[x], 0, t, 0)
            )
    return None


def immersion_witness(f: Morphism) -> ImmersionWitness | None:
    """First local-injectivity failure in deterministic order, or None:
    _first_failure of f's compact form, named by f's ids.

    Vertex links: no two outgoing edges with one label, no two incoming
    edges with one label.  Edge links: the slots (relator, position) of all
    face sides traversing one edge are pairwise distinct.
    """
    return _first_failure(_compact(_checked(f)), f.presentation, _ids(f))


def is_immersion(f: Morphism) -> bool:
    return immersion_witness(f) is None


def presentation_complex(pres: Presentation) -> Morphism:
    """The identity-labeled complex of a presentation: one vertex, one loop
    per generator, one face per relator spelled along its boundary."""
    v = "v0"
    edges = [Edge(g, v, v) for g in pres.generators]
    faces = [
        Face(f"f{k}", tuple((gen, sign) for gen, sign in word))
        for k, word in enumerate(pres.relators)
    ]
    cx = TwoComplex.make([v], edges, faces)
    labels = {g: g for g in pres.generators}
    types = {f"f{k}": k for k in range(len(pres.relators))}
    return Morphism(cx, pres, labels, types)


def trace_relator(word: Word, forward: dict, backward: dict, start) -> list | None:
    """The closed trace of `word` from vertex `start`, or None.

    The folded 1-skeleton is given per generator: forward[g] maps the tail
    of each g-edge to its head, backward[g] its head to its tail.  A letter
    (g, +1) follows the g-edge out of the current vertex, (g, -1) the g-edge
    into it.  The trace is returned as the tails of the edges it reads, one
    per letter; it is None when it runs into a missing edge or does not end
    at `start`.  In a folded skeleton each (vertex, label, direction) has at
    most one edge, so the trace from `start` is unique when it exists.
    """
    tails = []
    at = start
    for gen, sign in word:
        if sign > 0:
            tail, at = at, forward[gen].get(at)
        else:
            tail = at = backward[gen].get(at)
        if at is None:
            return None
        tails.append(tail)
    return tails if at == start else None
