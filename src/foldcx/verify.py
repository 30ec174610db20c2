"""Machine-checkable verification of the structure results.

Three checkers exercise the quotient machinery row by row and a fourth
confronts its conclusions with the independent exhaustive enumeration:

  vertex identification   identifying vertices v_u ~ v_v of C(i) and
                          folding gives C(gcd(i, v - u));
  edge identification     identifying the last b-edge b_i of D(i) with an
                          earlier one b_j gives C(odd_part(i - j));
  coupling                gluing a cell to the last b-edge of D(i) gives
                          one class per move: C(odd_part(i)) for the short
                          cell, D(i) or D(i+1) for the long cell at
                          position 0 or 2 (family membership is checked up
                          to mirror variant: coupling on the
                          orientation-symmetric D(0) gives D(0) and the
                          mirror of D(1));
  main theorem            every connected immersion without free faces
                          using both cell types is a C up to mirror, has
                          Euler characteristic 1 and carries a
                          contractibility certificate, while single-type
                          immersions have non-positive Euler
                          characteristic or a certificate.

The first three stay on the compact fold state from input to verdict.
Each input C(i) or D(i) is checked to be an immersion and turned into one
fold state (folding._FoldState) once, and coupling builds one glued state
per cell type (folding._coupling_base), on which a coupling is an edge
identification.  Each row folds a copy of one such state and classifies
the compact quotient (families.classify_compact), reading chi as V - E +
F of that compact form.  A quotient whose key equals a family key is
isomorphic to a built, immersion-checked family complex, so the row loses
no check.  Only when the compact classifier finds no family does the row
build the quotient, through folding._finish, which raises RuntimeError
when folding ended at a non-immersion.

closure_search is the bridge between the two routes: starting from an
immersion with free faces it explores the move tree and collects the
free-face-free immersions it reaches.  Each node branches on one free
edge only, the one with the fewest moves: identify it with a same-labeled
edge, or couple either cell type onto it.  Its docstring argues why one
edge suffices and states the scope of that argument.

Reports are deterministic: rows are generated in sorted order and the
text and JSON forms exclude wall-clock time unless explicitly requested.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

from .canonical import canonical_form, canonical_key, isomorphic
from .complexes import (
    ComplexError,
    Morphism,
    euler_characteristic,
    free_faces,
    id_key,
)
from .enumeration import MAX_NODES, enumerate_by_types
from .families import (
    TYPE_LONG,
    TYPE_SHORT,
    FamilyTag,
    build_C,
    build_D,
    classify,
    classify_compact,
    odd_part,
)
from .folding import (
    _coupling_base,
    _finish,
    _FoldState,
    _identify_edges_state,
    _identify_vertices_state,
    _immersion_state,
)
from .groups import MAX_COSETS, check_max_cosets
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

    def to_text(self, include_timing: bool = False) -> str:
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
        if include_timing:
            lines.append(f"  wall clock: {self.wall_clock_s:.3f}s")
        return "\n".join(lines) + "\n"


def _tag_str(tag: FamilyTag | None) -> str:
    return str(tag) if tag is not None else "other"


def _tag_is(tag: FamilyTag | None, family: str, index: int) -> bool:
    """Whether tag is family(index) in either variant."""
    return tag is not None and (tag.family, tag.index) == (family, index)


Move = tuple  # ("identify-edges", e1, e2) | ("couple", type, position, edge)


@dataclass
class ClosureResult:
    results: list[tuple[Morphism, tuple[Move, ...]]]
    explored: int
    pruned: int
    max_depth: int
    folds: int
    duplicates: int


def closure_search(f: Morphism, max_faces: int) -> ClosureResult:
    """Breadth-first closure of the free-face moves from f.

    Each immersion with free faces is expanded on one free edge e: every
    identification of e with another edge of its label, and every coupling
    of a cell type at a relator position carrying that label, except at
    the slot (type, position) of e's own side, where the new cell folds
    back onto that side and gives the node again.  The couplings of one
    type fold copies of one glued state (folding._coupling_base).  e is the
    free edge with the fewest such moves, ties broken by shortlex id (the
    minimum-remaining-values rule of exact-cover search).  Immersions
    without free faces are collected, not expanded.  `folds` counts the
    successor states folded; those over the face budget are dropped and
    counted in `pruned`, those isomorphic to a state seen before in
    `duplicates`.

    Why one edge suffices.  Let phi: X -> Y map an immersion X with free
    edge e into an immersion Y without free faces, over the target.  phi(e)
    carries at least two sides in Y.  (a) If another edge e' of X has
    phi(e') = phi(e), phi factors through the fold of X with e ~ e' (a fold
    is the least quotient that immerses), so that identification maps to
    Y.  (b) Otherwise a side (x, q) of X maps to the side (phi(x), q), which
    lies on phi of the edge at position q of x, so the only side of phi(e)
    that X hits is the image of e's own side.  Some side (F, q) of phi(e) is
    missed; coupling a cell of F's type at position q onto e and sending it
    to F gives a map of the fold to Y.  Y's edge links are injective, so
    no two sides of phi(e) share a slot, and the missed side never has
    e's own slot, the one coupling skips.  Both moves are successors at e, and
    nothing here depends on which free edge e is, so what follows holds
    whatever edge each node branches on; the choice rule only sets the
    cost.

    The face budget.  Call phi face-injective when no two faces share an
    image.  In (a) the faces of the successor are classes of faces of X
    with one image each, so no two merge and phi stays face-injective.  In
    (b) F is the image of no face x of X: else (F, q) would be the image of
    the side (x, q), which lies on an edge mapped to phi(e), that is on e,
    and (F, q) would not be missed.  So the new cell merges with no face of
    X and the map stays face-injective.  Along such a path the live face
    count never exceeds the face count of Y.  Each step adds a face to the
    image (b) or removes an edge (a), so the path ends, at an immersion
    without free faces, which is collected.  Deduplication keeps one state
    per isomorphism class, and the state kept maps into Y as well.

    Scope.  For every Y without free faces, with at most max_faces faces,
    that f maps into face-injectively, some result maps face-injectively
    into Y.  The argument does not show that this result is Y itself
    rather than a smaller immersion without free faces inside Y, and it
    says nothing of targets that f maps into with two faces merged.  That
    the results are exactly the immersion classes is checked, not proved:
    the enumeration cross-check stays the arbiter.
    """
    if not free_faces(f.complex):
        raise ComplexError("closure_search needs a starting immersion with free faces")
    positions_per_label = Counter(
        gen for word in f.presentation.relators for gen, _ in word
    )
    seen = {canonical_key(_immersion_state(f).compact())[0]}
    queue: deque[tuple[Morphism, tuple[Move, ...]]] = deque([(f, ())])
    results: list[tuple[Morphism, tuple[Move, ...]]] = []
    explored = pruned = max_depth = folds = duplicates = 0
    while queue:
        current, moves = queue.popleft()
        explored += 1
        max_depth = max(max_depth, len(moves))
        labels = current.edge_labels
        edges_per_label = Counter(labels.values())
        eid = min(
            free_faces(current.complex),
            key=lambda e: (
                edges_per_label[labels[e]] - 1 + positions_per_label[labels[e]],
                id_key(e),
            ),
        )
        label = labels[eid]
        base = _immersion_state(current)
        successors: list[tuple[Move, _FoldState]] = [
            (("identify-edges", eid, other), _identify_edges_state(base, eid, other))
            for other in sorted(labels, key=id_key)
            if other != eid and labels[other] == label
        ]
        own_slot = next(
            (current.face_types[x.id], q)
            for x in current.complex.faces
            for q, (e, _) in enumerate(x.boundary)
            if e == eid
        )
        for t, word in enumerate(current.presentation.relators):
            slots = [
                p for p, (gen, _) in enumerate(word) if gen == label and (t, p) != own_slot
            ]
            if slots:
                glued, cell = _coupling_base(current, t)
                successors += [
                    (("couple", t, p, eid), _identify_edges_state(glued, cell[p], eid))
                    for p in slots
                ]
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
            nxt = _finish(state)
            if free_faces(nxt.complex):
                queue.append((nxt, moves + (move,)))
            else:
                results.append((nxt, moves + (move,)))
    results.sort(key=lambda pair: canonical_form(pair[0]))
    return ClosureResult(results, explored, pruned, max_depth, folds, duplicates)


def _classify_state(state: _FoldState) -> tuple[FamilyTag | None, int]:
    """(family tag, chi) of a folded state's quotient, both read off its
    compact form; see the module docstring.  classify of the quotient
    reads the same compact form, so when no family matches only the
    immersion check of folding._finish is left to make."""
    c = state.compact()
    tag = classify_compact(c)
    if tag is None:
        _finish(state)
    return tag, c.nv - len(c.tail) + len(c.ftype)


def _lemma_report(name: str, max_i: int, rows) -> VerificationReport:
    """Classify each (description, folded state, expected (family, index))
    row and compare; the wall clock covers building the rows too."""
    if max_i < 0:
        raise ComplexError(f"{name}: max_i must be at least 0, got {max_i}")
    started = time.monotonic()
    report = VerificationReport(name, {"max_i": max_i})
    for description, state, expected in rows:
        tag, chi = _classify_state(state)
        passed = _tag_is(tag, *expected)
        report.rows.append(ReportRow(description, _tag_str(tag), chi, passed))
    report.wall_clock_s = time.monotonic() - started
    return report


def check_lemma_vertex_identification(max_i: int) -> VerificationReport:
    """Identify every vertex pair v_u ~ v_v of every odd-index C(i) up to
    max_i and fold; each quotient must be C(gcd(i, v - u))."""

    def rows():
        for i in range(3, max_i + 1, 2):
            base = _immersion_state(build_C(i))
            for u, v in combinations(range(i), 2):
                state = _identify_vertices_state(base, f"v{u}", f"v{v}")
                yield f"C:{i} identify v{u}~v{v}", state, ("C", gcd(i, v - u))

    return _lemma_report("vertex-identification", max_i, rows())


def check_lemma_edge_identification(max_i: int) -> VerificationReport:
    """Identify the last b-edge b_i of D(i) and of Dt(i) with each earlier
    b-edge b_j and fold; each quotient must be C(odd_part(i - j)), in
    either variant."""

    def rows():
        for variant, label in (("standard", "D"), ("tilde", "Dt")):
            for i in range(1, max_i + 1):
                base = _immersion_state(build_D(i, variant))
                for j in range(i):
                    state = _identify_edges_state(base, f"b{i}", f"b{j}")
                    yield f"{label}:{i} identify b{i}~b{j}", state, ("C", odd_part(i - j))

    return _lemma_report("edge-identification", max_i, rows())


def check_lemma_coupling(max_i: int) -> VerificationReport:
    """Couple each cell type at each matching position to the last b-edge
    b_i of D(i); each move has one outcome, compared up to mirror variant:
    the short cell gives C(odd_part(i)), or D(0) when i = 0; the long cell
    at position 0 gives D(i), or Dt(1) when i = 0 (D(0) is orientation-
    symmetric); the long cell at position 2 gives D(i + 1)."""
    free_labels: dict[int, list[str]] = {}

    def rows():
        for i in range(max_i + 1):
            d = build_D(i)
            free_labels[i] = sorted({d.edge_labels[e] for e in free_faces(d.complex)})
            edge = f"b{i}"
            for t, word in enumerate(d.presentation.relators):
                base, cell = _coupling_base(d, t)
                for p, (gen, _) in enumerate(word):
                    if gen != d.edge_labels[edge]:
                        continue
                    if t == TYPE_SHORT:
                        expected = ("C", odd_part(i)) if i else ("D", 0)
                    else:
                        expected = ("D", i + 1) if p == 2 else ("D", i if i else 1)
                    state = _identify_edges_state(base, cell[p], edge)
                    yield f"D:{i} couple type {t} position {p} at {edge}", state, expected

    report = _lemma_report("coupling", max_i, rows())
    report.meta["free_edge_labels_of_D"] = free_labels
    return report


def verify_main_theorem(
    max_vertices: int,
    max_cosets: int = MAX_COSETS,
    max_nodes: int = MAX_NODES,
) -> VerificationReport:
    """Enumerate immersions at desk scale and check the contractibility
    dichotomy: both-type classes are C up to mirror, with chi 1 and a
    certificate; single-type classes have chi <= 0 or a certificate.  One
    enumeration pass serves all three type sets, and max_nodes bounds that
    single pass."""
    check_max_cosets(max_cosets)
    started = time.monotonic()
    report = VerificationReport(
        "main-theorem",
        {
            "max_vertices": max_vertices,
            "max_cosets": max_cosets,
            "max_nodes": max_nodes,
        },
    )
    kinds = (
        ("both-types", "both_type_classes", frozenset({TYPE_SHORT, TYPE_LONG})),
        ("short-only", "short-only_classes", frozenset({TYPE_SHORT})),
        ("long-only", "long-only_classes", frozenset({TYPE_LONG})),
    )
    classes = enumerate_by_types(
        max_vertices, [types for _, _, types in kinds], max_nodes=max_nodes
    )
    for name, meta_key, types in kinds:
        both = len(types) == 2
        report.meta[meta_key] = len(classes[types])
        for k, morphism in enumerate(classes[types]):
            tag = classify(morphism)
            chi = euler_characteristic(morphism.complex)
            if not both and chi <= 0:
                passed, detail = True, "chi <= 0"
            else:
                cert = certify_contractible(morphism.complex, max_cosets)
                passed = cert.contractible and (
                    not both or (tag is not None and tag.family == "C" and chi == 1)
                )
                detail = f"certificate {cert.kind}"
            report.rows.append(
                ReportRow(
                    f"{name} class {k}: "
                    f"V={len(morphism.complex.vertices)} F={len(morphism.complex.faces)}",
                    _tag_str(tag),
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
