"""Quotient-and-fold engine.

Folding turns an arbitrary combinatorial map into a locally injective one
by repeatedly merging cells that witness a failure of local injectivity:

  graph fold   two edges with the same label sharing the corresponding
               endpoint are merged, merging their other endpoints;
  face fold    two face sides occupying the same (relator, position) slot
               on one edge force their faces equal, merging the two
               boundaries position by position (faces of one relator merge
               label-consistently; this is checked, not assumed).

Each applied merge strictly decreases the number of live cells, so the
process terminates, and both rules are forced in any immersion quotient,
so the fixpoint does not depend on processing order.  Two engines share
the merge primitives: the default one keeps incidence indexes and a
worklist of discovered conflicts (deterministic discovery order, graph
folds first); the rescan engine recomputes the full conflict set after
every merge and picks either the shortlex-smallest pair or, given an rng,
a random one.  The tests fold through both engines and through randomized
orders and check the quotients agree.

Internally cells are numbered in shortlex id order, so keeping the least
integer of a merged class as its representative is the same rule as
keeping the shortlex-least id.  Numbering the live roots in that order
gives compact(), the quotient in the integer form of canonical.Compact;
the closure search deduplicates fold states on its canonical key, so it
builds a Morphism only for the new ones.

Every merge is recorded in a FoldTrace; replaying a trace as raw unions
reproduces the folded output from the input.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass

from .canonical import Compact
from .complexes import (
    ComplexError,
    Edge,
    Face,
    Morphism,
    TwoComplex,
    immersion_witness,
    validate,
)


@dataclass(frozen=True)
class MergeEvent:
    kind: str  # "vertex-merge" | "edge-merge" | "face-merge"
    survivor: str
    absorbed: str


@dataclass(frozen=True)
class FoldTrace:
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

    @staticmethod
    def from_json_lines(text: str) -> "FoldTrace":
        events = []
        for line in text.splitlines():
            if line.strip():
                doc = json.loads(line)
                events.append(MergeEvent(doc["kind"], doc["survivor"], doc["absorbed"]))
        return FoldTrace(tuple(events))


def _find(parent: list[int], x: int) -> int:
    p = parent[x]
    while p != parent[p]:
        p = parent[p]
    while parent[x] != p:
        parent[x], x = p, parent[x]
    return p


class _FoldState:
    """Union-find over the three sorts plus incidence indexes.

    end_members[(label, vertex, 0|1)] holds the live edges with that
    endpoint; side_members[edge][(type, position)] holds the live faces
    with a side in that slot.  Any key with two members is a conflict;
    adding a member to a populated key queues one link-to-least pair,
    which suffices because members of one key merge transitively.
    """

    VERTEX, EDGE, FACE = "vertex-merge", "edge-merge", "face-merge"

    def __init__(self, f: Morphism):
        cx = f.complex
        self.presentation = f.presentation
        self.ngens = len(f.presentation.generators)
        gen_ix = {g: k for k, g in enumerate(f.presentation.generators)}
        self.vids = list(cx.vertices)  # shortlex-sorted by construction
        self.eids = [e.id for e in cx.edges]
        self.fids = [x.id for x in cx.faces]
        vix = {v: k for k, v in enumerate(self.vids)}
        eix = {e: k for k, e in enumerate(self.eids)}
        self.vpar = list(range(len(self.vids)))
        self.epar = list(range(len(self.eids)))
        self.fpar = list(range(len(self.fids)))
        self.tail = [vix[e.tail] for e in cx.edges]
        self.head = [vix[e.head] for e in cx.edges]
        self.elab = [gen_ix[f.edge_labels[e.id]] for e in cx.edges]
        self.boundary = [
            [(eix[eid], sign) for eid, sign in x.boundary] for x in cx.faces
        ]
        self.ftype = [f.face_types[x.id] for x in cx.faces]
        self.events: list[tuple[str, int, int]] = []
        end_members: dict[int, set[int]] = {}
        side_members: dict[int, dict[tuple[int, int], set[int]]] = {}
        pending_edges: deque[tuple[int, int]] = deque()
        pending_faces: deque[tuple[int, int]] = deque()
        ngens2 = self.ngens * 2
        for e in range(len(self.eids)):
            lab2 = self.elab[e] * 2
            for key in (self.tail[e] * ngens2 + lab2, self.head[e] * ngens2 + lab2 + 1):
                members = end_members.get(key)
                if members is None:
                    end_members[key] = {e}
                else:
                    pending_edges.append((min(members), e))
                    members.add(e)
        for x in range(len(self.fids)):
            t = self.ftype[x]
            for p, (e, _) in enumerate(self.boundary[x]):
                slots = side_members.get(e)
                if slots is None:
                    side_members[e] = {(t, p): {x}}
                    continue
                members = slots.get((t, p))
                if members is None:
                    slots[(t, p)] = {x}
                else:
                    pending_faces.append((min(members), x))
                    members.add(x)
        self.end_members = end_members
        self.side_members = side_members
        self.pending_edges = pending_edges
        self.pending_faces = pending_faces

    # -- index maintenance -------------------------------------------------
    # end keys are packed as (vertex * ngens + label) * 2 + direction

    def _side_add(self, edge: int, slot: tuple[int, int], face: int) -> None:
        slots = self.side_members.setdefault(edge, {})
        members = slots.setdefault(slot, set())
        if members and face not in members:
            self.pending_faces.append((min(members), face))
        members.add(face)

    # -- merges ------------------------------------------------------------

    def merge_vertices(self, u: int, v: int) -> None:
        vpar = self.vpar
        ru, rv = _find(vpar, u), _find(vpar, v)
        if ru == rv:
            return
        survivor, absorbed = (ru, rv) if ru < rv else (rv, ru)
        vpar[absorbed] = survivor
        self.events.append((self.VERTEX, survivor, absorbed))
        ngens2 = self.ngens * 2
        base = absorbed * ngens2
        target = survivor * ngens2
        end_members, epar = self.end_members, self.epar
        pending = self.pending_edges
        for offset in range(ngens2):
            moved = end_members.pop(base + offset, None)
            if moved:
                for edge in sorted(moved):
                    if _find(epar, edge) == edge:
                        members = end_members.get(target + offset)
                        if not members:  # missing or emptied by discards
                            end_members[target + offset] = {edge}
                        elif edge not in members:
                            pending.append((min(members), edge))
                            members.add(edge)

    def merge_edges(self, e1: int, e2: int) -> None:
        epar = self.epar
        r1, r2 = _find(epar, e1), _find(epar, e2)
        if r1 == r2:
            return
        elab, tail, head = self.elab, self.tail, self.head
        if elab[r1] != elab[r2]:
            raise RuntimeError("edge merge with mismatched labels")
        survivor, absorbed = (r1, r2) if r1 < r2 else (r2, r1)
        epar[absorbed] = survivor
        self.events.append((self.EDGE, survivor, absorbed))
        lab2 = elab[absorbed] * 2
        ngens2 = self.ngens * 2
        end_members, vpar = self.end_members, self.vpar
        for key in (
            _find(vpar, tail[absorbed]) * ngens2 + lab2,
            _find(vpar, head[absorbed]) * ngens2 + lab2 + 1,
        ):
            members = end_members.get(key)
            if members:
                members.discard(absorbed)
        moved = self.side_members.pop(absorbed, None)
        if moved:
            fpar = self.fpar
            for slot in sorted(moved):
                for face in sorted(moved[slot]):
                    if _find(fpar, face) == face:
                        self._side_add(survivor, slot, face)
        self.merge_vertices(tail[r1], tail[r2])
        self.merge_vertices(head[r1], head[r2])

    def merge_faces(self, f1: int, f2: int) -> None:
        r1, r2 = _find(self.fpar, f1), _find(self.fpar, f2)
        if r1 == r2:
            return
        if self.ftype[r1] != self.ftype[r2]:
            raise RuntimeError("face merge with mismatched types")
        survivor, absorbed = (r1, r2) if r1 < r2 else (r2, r1)
        self.fpar[absorbed] = survivor
        self.events.append((self.FACE, survivor, absorbed))
        t = self.ftype[absorbed]
        for p, (e, _) in enumerate(self.boundary[absorbed]):
            slots = self.side_members.get(_find(self.epar, e))
            if slots and (t, p) in slots:
                slots[(t, p)].discard(absorbed)
        for (e1s, s1), (e2s, s2) in zip(self.boundary[r1], self.boundary[r2]):
            if s1 != s2:
                raise RuntimeError("face merge with mismatched side signs")
            self.merge_edges(e1s, e2s)

    # -- engines -------------------------------------------------------------

    def run_worklist(self) -> None:
        """Drain discovered conflicts; graph folds take priority."""
        while self.pending_edges or self.pending_faces:
            if self.pending_edges:
                self.merge_edges(*self.pending_edges.popleft())
            else:
                self.merge_faces(*self.pending_faces.popleft())

    def _roots(self, parent: list[int]) -> list[int]:
        return [x for x, p in enumerate(parent) if p == x]

    def graph_conflicts(self) -> list[tuple[int, int]]:
        out = set()
        by_end: dict[tuple[int, int, int], list[int]] = {}
        for e in self._roots(self.epar):
            lab = self.elab[e]
            by_end.setdefault((lab, _find(self.vpar, self.tail[e]), 0), []).append(e)
            by_end.setdefault((lab, _find(self.vpar, self.head[e]), 1), []).append(e)
        for group in by_end.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    out.add((min(group[i], group[j]), max(group[i], group[j])))
        return sorted(out)

    def face_conflicts(self) -> list[tuple[int, int]]:
        out = set()
        by_slot: dict[tuple[int, int, int], list[int]] = {}
        for x in self._roots(self.fpar):
            rtype = self.ftype[x]
            for p, (e, _) in enumerate(self.boundary[x]):
                by_slot.setdefault((_find(self.epar, e), rtype, p), []).append(x)
        for group in by_slot.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    out.add((min(group[i], group[j]), max(group[i], group[j])))
        return sorted(out)

    def run_rescan(self, rng: random.Random | None) -> None:
        """Reference engine: recompute every conflict after each merge and
        apply the shortlex-smallest (or, with an rng, a random) one."""
        while True:
            graph = self.graph_conflicts()
            faces = self.face_conflicts()
            if not graph and not faces:
                return
            if rng is None:
                if graph:
                    self.merge_edges(*graph[0])
                else:
                    self.merge_faces(*faces[0])
            else:
                kinds = [("e", c) for c in graph] + [("f", c) for c in faces]
                kind, pair = kinds[rng.randrange(len(kinds))]
                if kind == "e":
                    self.merge_edges(*pair)
                else:
                    self.merge_faces(*pair)

    def run(self, rng: random.Random | None = None, rescan: bool = False) -> None:
        if rescan or rng is not None:
            self.run_rescan(rng)
        else:
            self.run_worklist()

    # -- state queries (used by searches to avoid materializing quotients) ----

    def live_face_count(self) -> int:
        return len(self._roots(self.fpar))

    def compact(self) -> Compact:
        """The live quotient in compact form, cells numbered by their roots;
        equal to the compact form of quotient() without building it."""
        vpar, epar = self.vpar, self.epar
        vroots, eroots = self._roots(vpar), self._roots(epar)
        froots = self._roots(self.fpar)
        vix = {v: k for k, v in enumerate(vroots)}
        eix = {e: k for k, e in enumerate(eroots)}
        return Compact(
            self.ngens,
            len(vroots),
            [vix[_find(vpar, self.tail[e])] for e in eroots],
            [vix[_find(vpar, self.head[e])] for e in eroots],
            [self.elab[e] for e in eroots],
            [self.ftype[x] for x in froots],
            [[(eix[_find(epar, e)], s) for e, s in self.boundary[x]] for x in froots],
        )

    # -- extraction ----------------------------------------------------------

    def trace(self) -> FoldTrace:
        names = {self.VERTEX: self.vids, self.EDGE: self.eids, self.FACE: self.fids}
        return FoldTrace(
            tuple(
                MergeEvent(kind, names[kind][survivor], names[kind][absorbed])
                for kind, survivor, absorbed in self.events
            )
        )

    def quotient(self) -> Morphism:
        vpar, epar = self.vpar, self.epar
        edges = [
            Edge(
                self.eids[e],
                self.vids[_find(vpar, self.tail[e])],
                self.vids[_find(vpar, self.head[e])],
            )
            for e in self._roots(epar)
        ]
        gens = self.presentation.generators
        labels = {self.eids[e]: gens[self.elab[e]] for e in self._roots(epar)}
        faces = []
        types = {}
        for x in self._roots(self.fpar):
            faces.append(
                Face(
                    self.fids[x],
                    tuple(
                        (self.eids[_find(epar, e)], s) for e, s in self.boundary[x]
                    ),
                )
            )
            types[self.fids[x]] = self.ftype[x]
        cx = TwoComplex.make(
            [self.vids[v] for v in self._roots(vpar)], edges, faces
        )
        return Morphism(cx, self.presentation, labels, types)


def _checked(f: Morphism) -> Morphism:
    problems = validate(f)
    if problems:
        raise ComplexError("invalid morphism: " + "; ".join(problems))
    return f


def _require_immersion(f: Morphism) -> None:
    witness = immersion_witness(f)
    if witness is not None:
        raise ComplexError(f"expected an immersion, but {witness}")


def _finish(state: _FoldState) -> Morphism:
    out = state.quotient()
    witness = immersion_witness(out)
    if witness is not None:
        raise RuntimeError(f"folding ended at a non-immersion: {witness}")
    return out


def fold(
    f: Morphism, rng: random.Random | None = None, rescan: bool = False
) -> tuple[Morphism, FoldTrace]:
    """Fold to an immersion; returns the quotient and its merge trace."""
    state = _FoldState(_checked(f))
    state.run(rng, rescan)
    return _finish(state), state.trace()


def replay_trace(f: Morphism, trace: FoldTrace) -> Morphism:
    """Apply the recorded merges as raw unions and extract the quotient."""
    state = _FoldState(_checked(f))
    vix = {v: k for k, v in enumerate(state.vids)}
    eix = {e: k for k, e in enumerate(state.eids)}
    fix = {x: k for k, x in enumerate(state.fids)}
    for ev in trace.events:
        if ev.kind == state.VERTEX:
            parent, table = state.vpar, vix
        elif ev.kind == state.EDGE:
            parent, table = state.epar, eix
        else:
            parent, table = state.fpar, fix
        a, b = _find(parent, table[ev.survivor]), _find(parent, table[ev.absorbed])
        if a != b:
            parent[max(a, b)] = min(a, b)
    return state.quotient()


def identify_vertices(f: Morphism, u: str, v: str) -> Morphism:
    """Quotient u = v in an immersion, then fold."""
    _require_immersion(f)
    if u == v:
        raise ComplexError("identify_vertices needs two distinct vertices")
    if u not in f.complex.vertices or v not in f.complex.vertices:
        raise ComplexError("identify_vertices: unknown vertex")
    state = _FoldState(f)
    vix = {x: k for k, x in enumerate(state.vids)}
    state.merge_vertices(vix[u], vix[v])
    state.run()
    return _finish(state)


def _identify_edges_state(f: Morphism, e1: str, e2: str) -> _FoldState:
    _require_immersion(f)
    if e1 not in f.edge_labels or e2 not in f.edge_labels:
        raise ComplexError("identify_edges: unknown edge")
    if f.edge_labels[e1] != f.edge_labels[e2]:
        raise ComplexError(
            f"identify_edges: labels differ "
            f"({f.edge_labels[e1]!r} vs {f.edge_labels[e2]!r})"
        )
    state = _FoldState(f)
    eix = {x: k for k, x in enumerate(state.eids)}
    state.merge_edges(eix[e1], eix[e2])
    state.run()
    return state


def identify_edges(f: Morphism, e1: str, e2: str) -> Morphism:
    """Quotient two same-labeled edges (endpoints included), then fold."""
    return _finish(_identify_edges_state(f, e1, e2))


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


def _couple_state(f: Morphism, face_type: int, position: int, edge_id: str) -> _FoldState:
    _require_immersion(f)
    if not 0 <= face_type < len(f.presentation.relators):
        raise ComplexError(f"unknown relator type {face_type}")
    word = f.presentation.relators[face_type]
    if not 0 <= position < len(word):
        raise ComplexError(f"position {position} outside relator of length {len(word)}")
    if edge_id not in f.edge_labels:
        raise ComplexError(f"unknown edge {edge_id}")
    gen, _ = word[position]
    if f.edge_labels[edge_id] != gen:
        raise ComplexError(
            f"label mismatch at position {position}: relator letter is {gen!r}, "
            f"edge {edge_id} is labeled {f.edge_labels[edge_id]!r}"
        )

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
        if sign > 0:
            edges.append(Edge(eid, start, end))
        else:
            edges.append(Edge(eid, end, start))
        labels[eid] = g
        boundary.append((eid, sign))
    faces = list(cx.faces) + [Face(face_id, tuple(boundary))]
    types = dict(f.face_types)
    types[face_id] = face_type

    glued = Morphism(
        TwoComplex.make(list(cx.vertices) + poly_vertices, edges, faces),
        f.presentation,
        labels,
        types,
    )
    state = _FoldState(glued)
    eix = {x: k for k, x in enumerate(state.eids)}
    state.merge_edges(eix[poly_edges[position]], eix[edge_id])
    state.run()
    return state


def couple(f: Morphism, face_type: int, position: int, edge_id: str) -> Morphism:
    """Glue one closed 2-cell of the given type to an immersion along one
    edge (matched to the relator occurrence at `position`) and fold."""
    return _finish(_couple_state(f, face_type, position, edge_id))
