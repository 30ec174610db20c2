"""Machine-checkable verification of the structure results.

Three checkers exercise the quotient machinery row by row and a fourth
confronts its conclusions with the independent exhaustive enumeration:

  vertex identification   identifying any two vertices of C(i) and folding
                          lands in the C family with a strictly smaller
                          index;
  edge identification     identifying the last b-edge of D(i) with any
                          earlier one lands in the C family;
  coupling                gluing any cell to the last b-edge of D(i) gives
                          D(i), D(i+1) or C(i) (family membership is
                          checked up to mirror variant: coupling on the
                          orientation-symmetric D(0) produces the mirror
                          of D(1));
  main theorem            every connected immersion without free faces
                          using both cell types is a C up to mirror, has
                          Euler characteristic 1 and carries a
                          contractibility certificate, while single-type
                          immersions have non-positive Euler
                          characteristic or a certificate.

closure_search is the bridge between the two routes: starting from an
immersion with free faces it explores the move tree (identify the free
edge with a same-labeled one, or couple either cell type onto it) and
collects every reachable free-face-free immersion.

Reports are deterministic: rows are generated in sorted order and the
JSON form excludes wall-clock time unless explicitly requested.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .canonical import _bfs, canonical_form, isomorphic
from .complexes import (
    ComplexError,
    Morphism,
    euler_characteristic,
    free_faces,
    immersion_witness,
)
from .enumeration import EnumerationFilter, enumerate_immersions
from .families import (
    TYPE_LONG,
    TYPE_SHORT,
    FamilyTag,
    build_C,
    build_D,
    classify,
    odd_part,
    target_presentation,
)
from .folding import (
    _couple_state,
    _FoldState,
    _identify_edges_state,
    couple,
    identify_edges,
    identify_vertices,
)
from .topology import certify_contractible


@dataclass(frozen=True)
class ReportRow:
    description: str
    classification: str
    chi: int
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        doc = {
            "description": self.description,
            "classification": self.classification,
            "chi": self.chi,
            "passed": self.passed,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass
class VerificationReport:
    name: str
    parameters: dict
    rows: list[ReportRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "name": self.name,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "rows": [row.as_dict() for row in self.rows],
            "meta": self.meta,
        }
        if include_timing:
            doc["wall_clock_s"] = self.wall_clock_s
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.as_dict(include_timing), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"{self.name}: {self.verdict} ({len(self.rows)} rows)"]
        for key in sorted(self.parameters):
            lines.append(f"  {key} = {self.parameters[key]}")
        for row in self.rows:
            mark = "ok " if row.passed else "FAIL"
            extra = f"  [{row.detail}]" if row.detail else ""
            lines.append(
                f"  {mark} {row.description} -> {row.classification}"
                f" (chi={row.chi}){extra}"
            )
        for key in sorted(self.meta):
            lines.append(f"  # {key}: {self.meta[key]}")
        lines.append(f"  wall clock: {self.wall_clock_s:.3f}s")
        return "\n".join(lines) + "\n"


def _tag_str(tag: FamilyTag | None) -> str:
    return str(tag) if tag is not None else "other"


Move = tuple  # ("identify-edges", e1, e2) | ("couple", type, position, edge)


@dataclass
class ClosureResult:
    results: list[tuple[Morphism, tuple[Move, ...]]]
    explored: int
    pruned: int
    max_depth: int


def _node_context(current: Morphism):
    """Slot occupancy and the (vertex, label) edge tables of an immersion."""
    cx = current.complex
    taken_slots: dict[str, set] = {}
    for face in cx.faces:
        ft = current.face_types[face.id]
        for q, (edge, _) in enumerate(face.boundary):
            taken_slots.setdefault(edge, set()).add((ft, q))
    outgoing: dict = {}
    incoming: dict = {}
    for e in cx.edges:
        outgoing[(e.tail, current.edge_labels[e.id])] = e
        incoming[(e.head, current.edge_labels[e.id])] = e
    return taken_slots, outgoing, incoming


def _couple_must_add_face(current: Morphism, context, t: int, p: int, eid: str) -> bool:
    """True when coupling a type-t cell at position p onto edge eid of an
    immersion certainly increases the face count.

    Gluing folds the polygon's sides deterministically along the relator
    trace through the existing skeleton, forward and backward from the
    glued side; sides beyond the walks stay on fresh cells.  A face merge
    requires two sides in one slot, which can only happen at the glued or
    a walked edge already carrying that slot, or after the two walks wrap
    all the way around.  So: walks don't wrap and no walked slot is taken
    means no merge, and the count is exactly faces + 1.
    """
    taken_slots, outgoing, incoming = context
    cx = current.complex
    word = current.presentation.relators[t]
    n = len(word)
    if (t, p) in taken_slots.get(eid, ()):
        return False
    glued = cx.edge_by_id[eid]
    start, end = (glued.tail, glued.head) if word[p][1] > 0 else (glued.head, glued.tail)

    walked = 0
    at = end
    for step in range(1, n):  # forward: positions p+1, p+2, ...
        gen, sign = word[(p + step) % n]
        edge = outgoing.get((at, gen)) if sign > 0 else incoming.get((at, gen))
        if edge is None:
            break
        if (t, (p + step) % n) in taken_slots.get(edge.id, ()):
            return False
        at = edge.head if sign > 0 else edge.tail
        walked += 1
    at = start
    for step in range(1, n - walked):  # backward: positions p-1, p-2, ...
        gen, sign = word[(p - step) % n]
        edge = incoming.get((at, gen)) if sign > 0 else outgoing.get((at, gen))
        if edge is None:
            break
        if (t, (p - step) % n) in taken_slots.get(edge.id, ()):
            return False
        at = edge.tail if sign > 0 else edge.head
        walked += 1
    if walked >= n - 1:
        return False  # full wrap: the engine must decide
    return True


def _state_key(state: _FoldState):
    """Isomorphism-invariant key of a folded state's quotient.  Folded
    states only fail the breadth-first route when disconnected, which
    only a disconnected start can produce."""
    found = _bfs(state.compact())
    return canonical_form(state.quotient()) if found is None else found[0]


def closure_search(f: Morphism, max_faces: int) -> ClosureResult:
    """Breadth-first closure of the free-face moves from f.

    At each immersion with free faces, every free edge branches over (a)
    identification with each other edge of the same label and (b) coupling
    of each cell type at each matching relator position.  Immersions
    without free faces are collected, not expanded.  Successors exceeding
    the face budget are dropped and counted in `pruned` (couplings that
    provably exceed it are pruned without folding).
    """
    if not free_faces(f.complex):
        raise ComplexError("closure_search needs a starting immersion with free faces")
    word_positions = [
        (t, p, gen)
        for t, word in enumerate(f.presentation.relators)
        for p, (gen, _) in enumerate(word)
    ]
    root_state = _FoldState(f)
    root_state.run()
    seen = {_state_key(root_state)}
    queue: deque[tuple[Morphism, tuple[Move, ...]]] = deque([(f, ())])
    results: list[tuple[Morphism, tuple[Move, ...]]] = []
    explored = pruned = max_depth = 0
    while queue:
        current, moves = queue.popleft()
        explored += 1
        max_depth = max(max_depth, len(moves))
        at_budget = len(current.complex.faces) + 1 > max_faces
        context = _node_context(current) if at_budget else None
        successors: list[tuple[Move, _FoldState]] = []
        frees = sorted(free_faces(current.complex))
        free_set = set(frees)
        for eid in frees:
            label = current.edge_labels[eid]
            for other in sorted(current.edge_labels):
                if other == eid or current.edge_labels[other] != label:
                    continue
                if other in free_set and other < eid:
                    continue  # the symmetric identification was generated already
                successors.append(
                    (
                        ("identify-edges", eid, other),
                        _identify_edges_state(current, eid, other),
                    )
                )
            for t, p, gen in word_positions:
                if gen != label:
                    continue
                if at_budget and _couple_must_add_face(current, context, t, p, eid):
                    pruned += 1
                    continue
                successors.append(
                    (("couple", t, p, eid), _couple_state(current, t, p, eid))
                )
        for move, state in successors:
            if state.live_face_count() > max_faces:
                pruned += 1
                continue
            key = _state_key(state)
            if key in seen:
                continue
            seen.add(key)
            nxt = state.quotient()
            witness = immersion_witness(nxt)
            if witness is not None:
                raise RuntimeError(f"closure_search reached a non-immersion: {witness}")
            if free_faces(nxt.complex):
                queue.append((nxt, moves + (move,)))
            else:
                results.append((nxt, moves + (move,)))
    results.sort(key=lambda pair: canonical_form(pair[0]))
    return ClosureResult(results, explored, pruned, max_depth)


def check_lemma_vertex_identification(max_i: int) -> VerificationReport:
    """Identify every vertex pair of every odd-index C up to max_i and
    fold; each quotient must be a C of strictly smaller index."""
    started = time.monotonic()
    report = VerificationReport(
        "vertex-identification", {"max_i": max_i}
    )
    for i in range(3, max_i + 1, 2):
        c = build_C(i)
        for u, v in combinations(c.complex.vertices, 2):
            result = identify_vertices(c, u, v)
            tag = classify(result)
            passed = tag is not None and tag.family == "C" and tag.index < i
            report.rows.append(
                ReportRow(
                    f"C:{i} identify {u}~{v}",
                    _tag_str(tag),
                    euler_characteristic(result.complex),
                    passed,
                )
            )
    report.wall_clock_s = time.monotonic() - started
    return report


def check_lemma_edge_identification(max_i: int) -> VerificationReport:
    """Identify the last b-edge of D(i) with each earlier b-edge and fold;
    each quotient must land in the C family (mirror variant for mirror
    inputs)."""
    started = time.monotonic()
    report = VerificationReport(
        "edge-identification", {"max_i": max_i}
    )
    for variant in ("standard", "tilde"):
        for i in range(1, max_i + 1):
            d = build_D(i, variant)
            for j in range(i):
                result = identify_edges(d, f"b{i}", f"b{j}")
                tag = classify(result)
                passed = tag is not None and tag.family == "C"
                label = "D" if variant == "standard" else "Dt"
                report.rows.append(
                    ReportRow(
                        f"{label}:{i} identify b{i}~b{j}",
                        _tag_str(tag),
                        euler_characteristic(result.complex),
                        passed,
                    )
                )
    report.wall_clock_s = time.monotonic() - started
    return report


def check_lemma_coupling(max_i: int) -> VerificationReport:
    """Couple each cell type at each matching position to the last b-edge
    of D(i); outcomes must be D(i), D(i+1) or C(i), where family indices
    are compared up to mirror variant and C indices up to odd part."""
    started = time.monotonic()
    report = VerificationReport("coupling", {"max_i": max_i})
    pres = target_presentation()
    free_labels: dict[int, list[str]] = {}
    for i in range(max_i + 1):
        d = build_D(i)
        free_labels[i] = sorted(
            {d.edge_labels[e] for e in free_faces(d.complex)}
        )
        edge = f"b{i}"
        expected = {("D", i), ("D", i + 1)}
        if i >= 1:
            expected.add(("C", odd_part(i)))
        for t, word in enumerate(pres.relators):
            for p, (gen, _) in enumerate(word):
                if gen != d.edge_labels[edge]:
                    continue
                result = couple(d, t, p, edge)
                tag = classify(result)
                passed = tag is not None and (tag.family, tag.index) in expected
                report.rows.append(
                    ReportRow(
                        f"D:{i} couple type {t} position {p} at {edge}",
                        _tag_str(tag),
                        euler_characteristic(result.complex),
                        passed,
                    )
                )
    report.meta["free_edge_labels_of_D"] = free_labels
    report.wall_clock_s = time.monotonic() - started
    return report


def verify_main_theorem(
    max_vertices: int,
    max_cosets: int = 100_000,
    max_nodes: int = 5_000_000,
) -> VerificationReport:
    """Enumerate immersions at desk scale and check the contractibility
    dichotomy: both-type classes are C up to mirror, with chi 1 and a
    certificate; single-type classes have chi <= 0 or a certificate."""
    started = time.monotonic()
    report = VerificationReport(
        "main-theorem",
        {
            "max_vertices": max_vertices,
            "max_cosets": max_cosets,
            "max_nodes": max_nodes,
        },
    )
    both = enumerate_immersions(
        EnumerationFilter(max_vertices, True, True, frozenset({TYPE_SHORT, TYPE_LONG})),
        max_nodes,
    )
    for k, morphism in enumerate(both):
        tag = classify(morphism)
        chi = euler_characteristic(morphism.complex)
        cert = certify_contractible(morphism.complex, max_cosets)
        passed = (
            tag is not None and tag.family == "C" and chi == 1 and cert.contractible
        )
        report.rows.append(
            ReportRow(
                f"both-types class {k}: "
                f"V={len(morphism.complex.vertices)} F={len(morphism.complex.faces)}",
                _tag_str(tag),
                chi,
                passed,
                detail=f"certificate {cert.kind}",
            )
        )
    report.meta["both_type_classes"] = len(both)
    for name, types in (("short-only", {TYPE_SHORT}), ("long-only", {TYPE_LONG})):
        classes = enumerate_immersions(
            EnumerationFilter(max_vertices, True, True, frozenset(types)), max_nodes
        )
        report.meta[f"{name}_classes"] = len(classes)
        for k, morphism in enumerate(classes):
            chi = euler_characteristic(morphism.complex)
            if chi <= 0:
                passed, detail = True, "chi <= 0"
            else:
                cert = certify_contractible(morphism.complex, max_cosets)
                passed, detail = cert.contractible, f"certificate {cert.kind}"
            report.rows.append(
                ReportRow(
                    f"{name} class {k}: "
                    f"V={len(morphism.complex.vertices)} F={len(morphism.complex.faces)}",
                    _tag_str(classify(morphism)),
                    chi,
                    passed,
                    detail=detail,
                )
            )
    mirror = {}
    for k in range(1, max_vertices + 1, 2):
        mirror[f"C:{k}"] = isomorphic(build_C(k), build_C(k, "tilde")) is not None
    report.meta["mirror_C_isomorphic_to_C"] = mirror
    report.wall_clock_s = time.monotonic() - started
    return report
