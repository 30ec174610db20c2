"""Contractibility certificates.

A certificate is replayable evidence for (or against) contractibility:

  collapsible                a sequence of elementary collapses down to a
                             point; replay_collapse checks every step on
                             live occurrence counts and degrees
  simply-connected-acyclic   point homology plus a finished coset
                             enumeration of order 1, run on the
                             Tietze-reduced pi1 presentation (same group);
                             a connected 2-complex with trivial fundamental
                             group and trivial H2 is contractible
  not-contractible           a homology witness (nonzero Betti number or
                             torsion, or Euler characteristic != 1)
  unknown                    not collapsible, and the coset enumeration
                             hit its cap or found a nontrivial group

certify_contractible goes from proof to refutation.  When the Euler
characteristic is 1 the collapse search runs first, and a sequence it finds
is replayed and returned with the point homology stated, not computed: an
elementary collapse is a deformation retraction (Whitehead, "Simplicial
spaces, nuclei and m-groups", 1939), so a replayed collapse to one vertex
shows that cx is homotopy equivalent to a point, which gives connectivity
and the homology of a point at once.  Otherwise connectivity is checked,
then homology (reduced sparse elimination, see homology.py) refutes before
any work on the fundamental group, and a simply-connected-acyclic
certificate keeps its computed homology as evidence.  A disconnected
complex never collapses to one vertex, so it still raises, after the
search when its Euler characteristic is 1.  Collapsibility is decided
by greedy free-face collapse, which is complete because the order of
free-face collapses does not matter; once no 2-cells remain the rest is
forced (a graph collapses to a point exactly when it is a tree, pruning
leaves in any order).  Each stage is near-linear in the size of
the complex, apart from the residual Smith normal form and the coset
enumeration, which work on what the reductions leave.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from .complexes import ComplexError, TwoComplex, euler_characteristic
from .groups import (
    MAX_COSETS,
    check_max_cosets,
    coset_enumeration,
    pi1_presentation,
    tietze_reduce,
)
from .homology import POINT_HOMOLOGY, HomologyProfile, homology

CollapseStep = tuple[str, str, str]  # ("edge-face", edge, face) | ("vertex-edge", v, e)

PI1_JUSTIFICATION = (
    "connected 2-complex with trivial fundamental group and trivial H2 "
    "is contractible"
)


def _tree_collapse(cx: TwoComplex, edges: set[str]) -> list[CollapseStep] | None:
    """Leaf-pruning order for the remaining 1-skeleton, or None if it is
    not a tree on all vertices."""
    if len(edges) != len(cx.vertices) - 1:
        return None
    degree = {v: 0 for v in cx.vertices}
    incident: dict[str, list] = {v: [] for v in cx.vertices}
    ends = {}
    for eid in edges:
        e = cx.edge_by_id[eid]
        degree[e.tail] += 1
        degree[e.head] += 1
        incident[e.tail].append(eid)
        incident[e.head].append(eid)
        ends[eid] = (e.tail, e.head)
    steps: list[CollapseStep] = []
    removed_e: set[str] = set()
    leaves = [v for v, d in degree.items() if d == 1]
    heapq.heapify(leaves)
    while leaves:
        v = heapq.heappop(leaves)
        if degree[v] != 1:
            continue
        (eid,) = [x for x in incident[v] if x not in removed_e]
        removed_e.add(eid)
        steps.append(("vertex-edge", v, eid))
        t, h = ends[eid]
        other = h if t == v else t
        degree[v] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            heapq.heappush(leaves, other)
    if len(removed_e) != len(edges):
        return None  # a cycle survived
    return steps


def collapsibility_search(cx: TwoComplex) -> list[CollapseStep] | None:
    """A full collapse sequence to a single vertex, or None if none exists.

    Greedy: collapse the smallest free (edge, face) pair until no free
    edge is left, then prune the remaining graph leaf by leaf.  This is
    complete.  Removing a face only lowers the occurrence counts of other
    edges, and a free edge keeps count 1 while its face lives; so once a
    face can be removed it stays removable, and the set of faces that can
    ever be removed does not depend on the order.  With every face gone,
    the graph left is homotopy-equivalent to cx, so whether it is a tree
    does not depend on which free edge was paired with which face.
    Vertex-edge collapses change no face counts, so interleaving them
    gains nothing.
    """
    if not cx.vertices:
        raise ComplexError("collapsibility_search of the empty complex")
    face_edges = {f.id: [eid for eid, _ in f.boundary] for f in cx.faces}
    count = {e.id: 0 for e in cx.edges}
    faces_of: dict[str, list[str]] = {e.id: [] for e in cx.edges}
    for fid, eids in face_edges.items():
        for eid in eids:
            count[eid] += 1
            faces_of[eid].append(fid)
    free = [(eid, faces_of[eid][0]) for eid, n in count.items() if n == 1]
    heapq.heapify(free)
    live = set(face_edges)
    edges = set(count)
    steps: list[CollapseStep] = []
    while free:
        eid, fid = heapq.heappop(free)
        if fid not in live:
            continue
        live.remove(fid)
        edges.remove(eid)
        steps.append(("edge-face", eid, fid))
        for x in face_edges[fid]:
            count[x] -= 1
        for x in set(face_edges[fid]):
            if count[x] == 1:
                (other,) = [g for g in faces_of[x] if g in live]
                heapq.heappush(free, (x, other))
    if live:
        return None
    tail = _tree_collapse(cx, edges)
    return None if tail is None else steps + tail


def replay_collapse(cx: TwoComplex, steps: list[CollapseStep]) -> TwoComplex:
    """Apply a collapse sequence, checking each step is legal; the result
    of a full sequence is a single-vertex complex.

    Steps are replayed on live cell dicts, per-edge occurrence counts and
    per-vertex degrees (a loop counts twice), so each step costs the size
    of its cells; the complex is rebuilt, and its integrity checked, once at
    the end.  An edge-face step needs a free edge and a known face using
    it; a vertex-edge step needs an edge that bounds no face and meets the
    vertex, which must have degree 1.
    """
    vertices = dict.fromkeys(cx.vertices)
    edges = dict(cx.edge_by_id)
    faces = dict(cx.face_by_id)
    count = cx.edge_face_occurrences()
    degree = dict.fromkeys(cx.vertices, 0)
    for e in cx.edges:
        degree[e.tail] += 1
        degree[e.head] += 1
    for kind, cell, other in steps:
        if kind == "edge-face":
            if count.get(cell) != 1:
                raise ComplexError(f"replay: edge {cell} is not free")
            if other not in faces:
                raise ComplexError(f"replay: unknown face {other}")
            face = faces[other]
            if all(eid != cell for eid, _ in face.boundary):
                raise ComplexError(f"replay: face {other} does not use edge {cell}")
            del faces[other]
            for eid, _ in face.boundary:
                count[eid] -= 1
            del count[cell]
            e = edges.pop(cell)
            degree[e.tail] -= 1
            degree[e.head] -= 1
        elif kind == "vertex-edge":
            if count.get(other, 0):
                raise ComplexError(f"replay: edge {other} still bounds a face")
            if degree.get(cell, 0) != 1:
                raise ComplexError(
                    f"replay: vertex {cell} has degree {degree.get(cell, 0)}"
                )
            e = edges.get(other)
            if e is None or cell not in (e.tail, e.head):
                # removing the vertex would leave its one edge dangling
                (own,) = [x.id for x in edges.values() if cell in (x.tail, x.head)]
                problem = (
                    f"unknown edge {other}"
                    if e is None
                    else f"edge {other} does not meet vertex {cell}"
                )
                raise ComplexError(
                    f"replay: {problem}, so edge {own} references missing vertex {cell}"
                )
            del vertices[cell], degree[cell], count[other], edges[other]
            other_end = e.head if e.tail == cell else e.tail
            degree[other_end] -= 1
        else:
            raise ComplexError(f"replay: unknown step kind {kind!r}")
    return TwoComplex.make(vertices, edges.values(), faces.values())


@dataclass(frozen=True)
class Certificate:
    kind: str  # "collapsible" | "simply-connected-acyclic" | "not-contractible" | "unknown"
    homology: HomologyProfile | None
    collapse_sequence: tuple[CollapseStep, ...] | None = None
    group_order: int | None = None
    reason: str | None = None

    @property
    def contractible(self) -> bool:
        return self.kind in ("collapsible", "simply-connected-acyclic")

    def as_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.homology is not None:
            doc["homology"] = self.homology.as_dict()
        if self.collapse_sequence is not None:
            doc["collapse_sequence"] = [list(s) for s in self.collapse_sequence]
        if self.group_order is not None:
            doc["group_order"] = self.group_order
            doc["justification"] = PI1_JUSTIFICATION
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def certify_contractible(cx: TwoComplex, max_cosets: int = MAX_COSETS) -> Certificate:
    check_max_cosets(max_cosets)
    chi = euler_characteristic(cx)
    if chi == 1:
        steps = collapsibility_search(cx)
        if steps is not None:
            final = replay_collapse(cx, steps)
            if len(final.vertices) != 1 or final.edges or final.faces:
                raise RuntimeError("collapse sequence does not end at a point")
            return Certificate(
                "collapsible", POINT_HOMOLOGY, collapse_sequence=tuple(steps)
            )
    if not cx.connected:
        raise ComplexError("certify_contractible needs a connected complex")
    profile = homology(cx)
    if not profile.is_point_like() or chi != 1:
        return Certificate(
            "not-contractible",
            profile,
            reason=f"homology {profile.as_dict()} with chi {chi}",
        )
    order = coset_enumeration(tietze_reduce(pi1_presentation(cx)), max_cosets)
    if order == 1:
        return Certificate("simply-connected-acyclic", profile, group_order=order)
    return Certificate(
        "unknown",
        profile,
        reason=f"not collapsible and coset budget {max_cosets} exhausted"
        if order is None
        else f"fundamental group order {order} not shown trivial",
    )
