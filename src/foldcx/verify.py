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

The first three certify each row instead of keying its quotient
(McConnell, Mehlhorn, Naeher & Schweitzer, "Certifying algorithms",
Computer Science Review 2011).  A row's target T is a standard family
complex, C(d), D(i) or D(i + 1), except Dt(1) for the long coupling at
position 0 of D(0).  Every base and every T is a family state, built
straight from the compact form that the family builder makes
(families.family_state), so the route makes no Morphism.  The checkers
read only states that the builder has checked against the closed form of
their family (the formula check, in families): each is its family
complex cell for cell, with v_x at index x, and the rest argues on the
formula.  Each checker call builds each T once (_Targets) and names it
without keying it: a standard tag is what classify reports for its own
complex (the lookup order of families.classify_compact), so only Dt(1)
is keyed, by classify_compact.  T's Euler characteristic is read off its
compact form's cell counts.  The base of a row is the state of C(i) or
D(i).  A coupling row's move glues a cell beside D(i) first
(folding._coupling_base), but only a row that falls back builds that
glued base.

The map pi.  For odd d, pi sends v_x of a base to v_(x mod d) of T =
C(d), or to v_(-x mod d) of C(d) from a tilde base.  Take C(i) with d
dividing i, or D(i) with d <= i.  The edge a(j): v(j mod i) -> v(j - 1)
goes to v(j mod d) -> v(j - 1 mod d), the a-edge of C(d) leaving v(j mod
d), and b(j): v(2j mod i) -> v(j) goes to v(2j mod d) -> v(j mod d),
which is b(j mod d); D(i) reads the same with no reduction mod i, and
v_x -> v_(x mod d) maps Dt(i) onto Ct(d) the same way, both reversing
every a-edge.  Reducing mod i and then mod d is reducing mod d only when
d divides i; else an a-edge of C(i) lands on no edge.  So each edge
lands on an edge, and each face on the closed path that reads its
relator from the image of its start.  That path is T's face there: T has
the short cell at v0, the image of the base's, and a long cell at every
vertex.  The map is onto: T's v_y and b(k), y, k < d, and a(k), 1 <= k
<= d, are the images of the base's own (d <= i), and T's long cells are
hit by the base's long cells at v(2j), reduced mod i in C(i), for 1 <= j
<= d, or 0 <= j < d in the tilde variant, whose images reach every class
mod d, 2 being invertible mod d.  From Ct(d), the mirror v_x -> v_(-x mod
d) finishes pi, so no Ct(d) is built: it sends a(j): v(j - 1) -> v(j mod
d) to v(1 - j) -> v(-j), which is a(1 - j) of C(d), read in 1..d, and
b(j): v(2j mod d) -> v(j) to v(-2j) -> v(-j), which is b(-j mod d); v0
and the short cell stay put, and the long cell at v(2j) goes to the
closed path reading the long relator from v(-2j), C(d)'s long cell
there.  The mirror is one to one on every sort of cell, so pi stays onto,
and its fibres on a tilde base are the classes mod d, as on a standard
one.

Every row has a lower bound: a partition of the vertices of the row's
move whose classes the fold must join, built from unions that the move
forces.  Once x ~ y in the fold, the g-edges leaving x and y share a
label and a tail class, so the fold makes them one edge and joins their
heads; entering edges join their tails the same way.  Rows derive the
bound from the checked skeleton, in O(log i) steps per row, and run no
fold and no map check: nothing runs per (base, T).

Vertex rows.  sigma_a of C(i) is the rotation v_x -> v_(x - 1 mod i), so
every vertex has an a-edge, and v_u ~ v_v forces sigma_a^u of the pair,
v_0 ~ v_m with m = v - u, and from there v_x ~ v_(x + m) for every x mod
i: the fold joins the cosets of the subgroup <m> of Z/i.  A row that
predicts d carries a Bezout witness, s = (m/d)^-1 mod i/d (_in_subgroup).
When d divides m and s * m = d mod i, which one multiplication checks, d
lies in <m>, so the fold joins v_x ~ v_(x + d) for every x.  The row is
certified when, besides, d divides i and T has d vertices: then those
are the classes mod d, the fibres of pi, and v_u, v_v lie in one fibre.
d must divide i: in Z/7, 3 lies in <3>, yet the fold of v0 ~ v3 in C(7)
is C(1), not C(3).

Edge rows.  A row b_i ~ b_j, j < i, of D(i) or Dt(i) joins the two
edges' heads v_i and v_j.  sigma_a is the path v_x -> v_(x - 1) in the
down direction, which is a-leaving for D and a-entering for Dt, so j
down-steps force v_(i - j) ~ v_0.  While the difference k is even, the
b-edges v_0 -> v_0 and v_k -> v_(k/2), read off the b-leaving array,
force v_0 ~ v_(k/2).  At the first odd difference x, up-steps from v_0 ~
v_x force v_m ~ v_(m + x) for every m (_shift_period): the fold joins
every class mod x, and x, the odd part of i - j, is at most i.  The row
is certified when T has x vertices: the classes mod x are then the
fibres of pi, and the moved pair lies in one fibre, since x divides i -
j, and b_i and b_j run v_2i -> v_i and v_2j -> v_j.

Coupling rows.  A row glues a closed cell of relator t beside D(i) and
identifies the cell's edge at position p with the last b-edge b_i: v_2i
-> v_i.  The cell's vertices u0, ..., u(n - 1) are off the formula; its
edge at position q runs u_q -> u_(q + 1) for a letter of sign +1 and
back for -1.  So the short cell is the b-loop at u0, and the long cell
is b: u0 -> u1, a: u1 -> u2, b: u3 -> u2, a: u4 -> u3 and a: u0 -> u4.  b
sits at position 0 of the short relator and at 0 and 2 of the long one,
so each i has three rows, and each falls into one of four cases.  In
each, pi extends the family map over the cell by formula, and the row
counts the classes of its lower bound, read off the checked base.

  Own slot.  (t, p) is the slot of b_i's one side, read off the base's
  boundary rows (_own_slot): (long, 0), on the long face at v_2i, for i
  >= 1, and (short, 0) for i = 0.  The cell reads its relator from that
  slot as the face does, so each of its edges in turn shares a label
  and a direction with the face's, from joined vertices: every u_q joins
  the face's q-th vertex, and the bound has |V(D(i))| classes.  pi is the
  identity on D(i) and sends the cell onto that face, so T = D(i).
  Certified when |V(T)| = |V(D(i))|.

  Short cell, i >= 1.  The loop at u0 joins v_2i ~ v_i, and the edge
  rows' derivation from that pair (_shift_period(b_out, 2i, i)) joins
  every class mod x, the odd part of i, with u0 in the class of v_i,
  which is v_0's.  pi is v_y -> v_(y mod d) of T = C(d), d = odd_part(i),
  and u0 -> v_0.  The loop lands on b(0), the loop at v_0, and so does
  b_i, whose ends v_2i and v_i go to v_0, as d divides i; the cell lands
  on the short cell.  Certified when the derivation gives |V(T)|.

  Long cell at position 2.  b: u3 -> u2 ~ b_i joins u3 ~ v_2i and u2 ~
  v_i.  The base's a-edge into v_i, read off its a-entering array, is
  a(i + 1) from v_(i + 1) when i >= 1; with the cell's a-edge into u2,
  from u1, it joins u1 ~ v_(i + 1).  For i = 0 v_i has none, but v_2i is
  v_i, so the cell's two a-edges into that class, from u1 and from u4,
  join u1 ~ u4.  Each union joins one more u, so either way three of the
  five u's join: |V(D(i))| + 2 classes.  pi is the identity on D(i) and
  sends u0, ..., u4 to v_(2i + 2), v_(i + 1), v_i, v_2i, v_(2i + 1) of T
  = D(i + 1).  The cell's edges land on b(i + 1), a(i + 1), b(i), a(2i +
  1) and a(2i + 2), and the cell on the long face at v_(2i + 2): what
  D(i + 1) adds to D(i), with a(i + 1) and b(i).  Certified when |V(T)|
  = |V(D(i))| + 2.

  Long cell at position 0 on D(0).  b: u0 -> u1 ~ b_0, the loop at v_0,
  joins u0 ~ u1 ~ v_0.  The cell's two a-edges out of that class join
  their heads, u2 ~ u4, and v_0 has no a-edge leaving it, as the base's
  a-leaving array shows, to join a third head to them: 3 classes.  pi
  sends v0, u0 and u1 to v0, u2 and u4 to v1, and u3 to v2 of T = Dt(1),
  whose a-edges run v0 -> v1 -> v2 and whose b-edges are the loop at v0
  and v2 -> v1; the cell lands on its long face at v0.  Certified when
  |V(T)| = 3.

Both bounds.  Every row bounds the fold from both sides.  Lower: the
derivation makes only forced unions, so its classes lie inside the
fold's vertex classes.  Upper: pi identifies the moved pair and maps
cellularly onto an immersion, and the fold is the least quotient that
immerses (Stallings, "Topology of finite graphs", Invent. Math. 1983),
so every fold vertex class lies in one fibre of pi.  The derived classes
refine the fibres, so when the row derives as many classes as T has
vertices, pi being onto, the derived classes are the fibres, and the
fold's classes are the fibres too.  The comparisons are exact, so a
wrong derivation or prediction can only send a row to the fallback,
never pass a wrong one.

Why equal classes make the quotient T.  The fold reads edge classes off
by (tail class, label) and face classes by (relator, first edge class);
see folding.  With vertex classes the fibres of pi, these are the keys
that fix T's cells, and pi hits every cell, so the quotient's cells
biject with T's, boundaries included: the quotient is isomorphic to T,
and the row reports classify(T) and the Euler characteristic of T,
computed once per T.  A row whose certificate does not check, and only
such a row, is folded once, in _lemma_report, and falls back to
classifying the compact form of its folded state (_classify_state), so
a failing row still reports the class of its actual quotient.

closure_search is the bridge between the two routes: starting from an
immersion with free faces it explores the move tree and collects the
free-face-free immersions it reaches.  Each node branches on one free
edge only, the one with the fewest moves, ties broken by the largest
canonical edge number: identify it with a same-labeled edge, or couple
either cell type onto it.  Each node is keyed once, and the tie-break reads
that key, so the search does the same work however the cells are named.
A node is a fold state, checked to immerse on its compact form, and a
Morphism is made only for a result.  Its docstring argues why one edge
suffices and states the scope of that argument.

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
from typing import NamedTuple

from .canonical import canonical_form, canonical_key, isomorphic
from .complexes import ComplexError, Compact, Morphism, _words, euler_characteristic
from .enumeration import MAX_NODES, enumerate_by_types
from .families import (
    STANDARD,
    TILDE,
    TYPE_LONG,
    TYPE_SHORT,
    FamilyTag,
    build_C,
    build_family,
    classify,
    classify_compact,
    family_state,
    free_edges,
    odd_part,
)
from .folding import (
    _check_immersion,
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
    free edge with the fewest such moves (the minimum-remaining-values rule
    of exact-cover search), ties broken by the largest canonical number,
    the eix that canonical_key gives the edge.  Immersions without free
    faces are collected, not expanded.  `folds` counts the successor states
    folded; those over the face budget are dropped and counted in `pruned`,
    those isomorphic to a state seen before in `duplicates`.  max_faces
    below one is rejected before any work.

    A node is the unmerged fold state of its compact form, named by the
    roots' ids (_FoldState.from_compact, root_ids), so the search makes a
    Morphism only for a result (folding._finish).  Each new node's form is
    checked to immerse (folding._check_immersion).  The branching edge is
    read off the form: its free edges (families.free_edges), integer
    labels, and the own slot from the boundary rows.  compact() numbers
    edges by their roots, whose ids are in shortlex order, so the
    identify-edges partners, taken in edge-index order, come in id order.

    Each node is keyed once, when it is reached: the start before the
    loop, every other node as a successor, for the duplicate check.  Its
    queue entry keeps that key's eix, which numbers the node's edges, since
    the node is built from the form that was keyed; so the tie-break keys
    nothing.  Equal keys number isomorphic complexes alike,
    so e is fixed up to an automorphism of the node, and the node's
    successors up to isomorphism.  The search keeps the first state of each
    class it meets, and breadth first meets the classes of each depth after
    all those of the depths before, whatever the order within a depth.  So
    explored, folds, duplicates, pruned and max_depth do not depend on cell
    names; only the recorded moves and which state of a class is kept do.

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
    if max_faces < 1:
        raise ComplexError("max_faces must be at least 1")
    start = _immersion_state(f)
    if not free_edges(start.unmerged):
        raise ComplexError("closure_search needs a starting immersion with free faces")
    pres, relators = f.presentation, _words(f.presentation)
    positions_per_label = Counter(g for word in relators for g, _ in word)
    key, _, eix, _ = canonical_key(start.unmerged)
    seen = {key}
    queue: deque[tuple[_FoldState, tuple[Move, ...], list[int]]] = deque([(start, (), eix)])
    results: list[tuple[Morphism, tuple[Move, ...]]] = []
    explored = pruned = max_depth = folds = duplicates = 0
    while queue:
        base, moves, eix = queue.popleft()
        explored += 1
        max_depth = max(max_depth, len(moves))
        c = base.unmerged
        moves_at = Counter(c.label) + positions_per_label  # one more than the moves at each label
        e = min(free_edges(c), key=lambda x: (moves_at[c.label[x]], -eix[x]))
        label, eid = c.label[e], base.eids[e]
        # edges are numbered in shortlex id order, so partners come in id order
        successors: list[tuple[Move, _FoldState]] = [
            (("identify-edges", eid, base.eids[o]), _identify_edges_state(base, eid, base.eids[o]))
            for o, g in enumerate(c.label) if o != e and g == label
        ]
        own_slot = _own_slot(c, e)
        for t, word in enumerate(relators):
            slots = [p for p, (g, _) in enumerate(word) if g == label and (t, p) != own_slot]
            if slots:
                glued, cell = _coupling_base(base, t)
                successors += [
                    (("couple", t, p, eid), _identify_edges_state(glued, cell[p], eid))
                    for p in slots
                ]
        folds += len(successors)
        for move, state in successors:
            if state.live_face_count() > max_faces:
                pruned += 1
                continue
            folded = state.compact()
            key, _, eix, _ = canonical_key(folded)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            if free_edges(folded):
                ids = state.root_ids()
                _check_immersion(folded, pres, ids)
                queue.append((_FoldState.from_compact(folded, pres, ids), moves + (move,), eix))
            else:
                results.append((_finish(state), moves + (move,)))
    results.sort(key=lambda pair: canonical_form(pair[0]))
    return ClosureResult(results, explored, pruned, max_depth, folds, duplicates)


def _own_slot(c: Compact, e: int) -> tuple[int, int]:
    """The (relator, position) slot of the first side of edge e of c, read
    off the boundary rows: a free edge's one side."""
    return next(
        (t, q) for t, row in zip(c.ftype, c.boundary) for q, (x, _) in enumerate(row) if x == e
    )


def _classify_state(state: _FoldState) -> tuple[FamilyTag | None, int]:
    """(family tag, chi) of a folded state's quotient, both read off its
    compact form once folding._check_immersion has checked that form, so
    no Morphism is made.  The lemma checkers call it only on a row whose
    certificate does not check; see the module docstring."""
    c = state.compact()
    _check_immersion(c, state.presentation, state.root_ids())
    return classify_compact(c), _chi(c)


def _chi(c: Compact) -> int:
    """The Euler characteristic of a compact complex, from its cell counts."""
    return c.nv - len(c.tail) + len(c.ftype)


class _Target(NamedTuple):
    """A predicted family complex T and the (classification, chi, passed)
    row that a row certified onto T reports.  The family builder checks
    every T against the family formula, so its vertex v_x has index x, and
    nv, its vertex count, is the modulus of the family map and what a
    row's derived class count must reach."""

    tag: FamilyTag
    nv: int
    row: tuple[str, int, bool]


class _Targets(dict):
    """The targets of one checker call by tag, each built as a family state
    checked against the formula, with no Morphism, and named once."""

    def __missing__(self, tag: FamilyTag) -> _Target:
        return self.add(tag, family_state(tag))

    def add(self, tag: FamilyTag, state: _FoldState) -> _Target:
        """The target of the unmerged state of the family complex tag
        names.  A standard tag is what classify reports for its complex
        (families.classify_compact argues it; every C(d) a checker
        predicts has odd d), so only a tilde tag is keyed."""
        c = state.unmerged
        named = tag if tag.variant == STANDARD else classify_compact(c)
        self[tag] = found = _Target(tag, c.nv, _row_fields(tag, named, _chi(c)))
        return found


def _shift_period(b_out: list[int], p: int, q: int) -> int:
    """The odd x such that joining v_p and v_q, p > q, on a D(i) or Dt(i)
    base checked against the family formula, whose b-leaving array is
    b_out, forces v_m ~ v_(m + x) for every m (module docstring); 0 when p
    <= q or a b-edge that a step needs is missing."""
    k = p - q
    if k <= 0:
        return 0
    while k % 2 == 0:
        if b_out[0] != 0 or b_out[k] != k // 2:
            return 0
        k //= 2
    return k


def _in_subgroup(d: int, m: int, i: int) -> bool:
    """Whether d divides m and lies in the subgroup <m> of Z/i, shown by
    the Bezout witness s = (m/d)^-1 mod i/d: s * m = d mod i.  No witness,
    a ValueError from pow, is a no."""
    if m % d:
        return False
    try:
        s = pow(m // d, -1, i // d)
    except ValueError:
        return False
    return (s * m - d) % i == 0


def _row_fields(predicted: FamilyTag, tag: FamilyTag | None, chi: int) -> tuple[str, int, bool]:
    """(classification, chi, passed) of a row that predicted a family
    complex and found tag and chi."""
    return _tag_str(tag), chi, _tag_is(tag, predicted.family, predicted.index)


def _lemma_report(name: str, max_i: int, fold, rows) -> VerificationReport:
    """Report each (description, target T, certified, base, x, y) row of a
    checker whose move is fold.  A row is certified when the vertex
    classes it derives from its checked base equal the fibres of a formula
    map onto T (module docstring), and reports T's class and chi.  Any
    other row, and only such a row, is folded here, once, as fold(base, x,
    y), and reports the class and chi of its folded state through
    _classify_state.  Either way the row passes when that class is T's
    family and index, in either variant.  What a certified row reports
    depends on T alone, so T carries it (_Target.row).  The wall clock
    covers building the rows too."""
    if max_i < 0:
        raise ComplexError(f"{name}: max_i must be at least 0, got {max_i}")
    started = time.monotonic()
    report = VerificationReport(name, {"max_i": max_i})
    for description, target, certified, base, x, y in rows:
        found = target.row
        if not certified:
            found = _row_fields(target.tag, *_classify_state(fold(base, x, y)))
        report.rows.append(ReportRow(description, *found))
    report.wall_clock_s = time.monotonic() - started
    return report


def check_lemma_vertex_identification(max_i: int) -> VerificationReport:
    """Identify every vertex pair v_u ~ v_v of every odd-index C(i) up to
    max_i; each quotient must be C(d), d = gcd(i, v - u).  A row is
    certified without folding: the family builder checks C(i) and C(d)
    against the family formula, and the row passes its certificate when d
    divides i, C(d) has d vertices, and the Bezout witness (_in_subgroup)
    shows that d divides v - u and lies in <v - u> of Z/i.  The fold of
    v_u ~ v_v then joins the classes mod d, and the map x -> x mod d of
    C(i) onto C(d) shows that it joins no more (module docstring).  T and
    the certificate depend on i and v - u alone, so each is worked out
    once per (i, v - u).  A row that does not check is folded and
    classified."""
    targets = _Targets()

    def certificate(i: int, m: int) -> tuple[_Target, bool]:
        """T and the certificate of each row v_u ~ v_v of C(i), v - u = m."""
        d = gcd(i, m)
        target = targets[FamilyTag("C", d, STANDARD)]
        return target, i % d == 0 and target.nv == d and _in_subgroup(d, m, i)

    def rows():
        for i in range(3, max_i + 1, 2):
            # C(i) is this base and the target of later rows that
            # predict it: built once for both
            tag = FamilyTag("C", i, STANDARD)
            base = family_state(tag)
            targets.add(tag, base)
            by_m = [certificate(i, m) for m in range(1, i)]
            for u, v in combinations(range(i), 2):
                target, certified = by_m[v - u - 1]
                yield f"C:{i} identify v{u}~v{v}", target, certified, base, u, v

    def fold(base: _FoldState, u: int, v: int) -> _FoldState:
        return _identify_vertices_state(base, f"v{u}", f"v{v}")

    return _lemma_report("vertex-identification", max_i, fold, rows())


def check_lemma_edge_identification(max_i: int) -> VerificationReport:
    """Identify the last b-edge b_i of D(i) and of Dt(i) with each earlier
    b-edge b_j and fold; each quotient must be C(d), d = odd_part(i - j),
    in either variant.  A row is certified without folding: the family
    builder checks D(i) or Dt(i), and C(d), against the family formula,
    and the row derives from the heads v_i and v_j the odd x such that the
    fold joins every class mod x (_shift_period).  The row passes its
    certificate when T = C(d) has x vertices: the map v_y -> v_(y mod x)
    of D(i) onto T, or v_y -> v_(-y mod x) of Dt(i) (the mirror), then
    shows that the fold joins no more (module docstring).  A row that
    does not check is folded and classified."""
    targets = _Targets()

    def rows():
        for variant, label in ((STANDARD, "D"), (TILDE, "Dt")):
            for i in range(1, max_i + 1):
                base = family_state(FamilyTag("D", i, variant))
                b_out = base.neighbours()[2 * base.presentation.generators.index("b")]
                for j in range(i):
                    target = targets[FamilyTag("C", odd_part(i - j), STANDARD)]
                    certified = _shift_period(b_out, i, j) == target.nv
                    bi, bj = f"b{i}", f"b{j}"
                    yield f"{label}:{i} identify {bi}~{bj}", target, certified, base, bi, bj

    return _lemma_report("edge-identification", max_i, _identify_edges_state, rows())


def check_lemma_coupling(max_i: int) -> VerificationReport:
    """Couple each cell type at each matching position to the last b-edge
    b_i of D(i); each move has one outcome, compared up to mirror variant:
    the short cell gives C(odd_part(i)), or D(0) when i = 0; the long cell
    at position 0 gives D(i), or Dt(1) when i = 0 (D(0) is orientation-
    symmetric); the long cell at position 2 gives D(i + 1).  A row is
    certified without gluing, folding or mapping, like an edge row: the
    family builder checks D(i) and T against the family formula, and the
    row counts the classes that its move forces, reading the base's own
    slot, its b-leaving array or an a-neighbour of v_i, by the row's case
    (module docstring).  It passes its certificate when T has that many
    vertices: the formula map of the case onto T then shows that the fold
    joins no more.  A row that does not check is glued, folded once and
    classified."""
    targets = _Targets()
    free_labels: dict[int, list[str]] = {}

    def rows():
        following = family_state(FamilyTag("D", 0, STANDARD))
        gens = following.presentation.generators
        a, b = gens.index("a"), gens.index("b")
        for i in range(max_i + 1):
            # D(i + 1) is the target of the long cell at position 2 and
            # the next base: built once for both
            d, following = following, family_state(FamilyTag("D", i + 1, STANDARD))
            targets.add(FamilyTag("D", i + 1, STANDARD), following)
            c = d.unmerged
            free_labels[i] = sorted({gens[c.label[e]] for e in free_edges(c)})
            nb = d.neighbours()
            a_out, a_in, b_out = nb[2 * a], nb[2 * a + 1], nb[2 * b]
            edge = f"b{i}"
            own = _own_slot(c, d.edge_ix[edge])
            for t, word in enumerate(d.presentation.relators):
                for p, (gen, _) in enumerate(word):
                    if gen != "b":
                        continue
                    if (t, p) == own:
                        # every cell vertex joins a vertex of b_i's face
                        tag, lower = ("D", i, STANDARD), c.nv
                    elif t == TYPE_SHORT:
                        # u0 ~ v_2i ~ v_i joins the classes mod odd_part(i)
                        tag, lower = ("C", odd_part(i), STANDARD), _shift_period(b_out, 2 * i, i)
                    elif p == 2:
                        # u3 ~ v_2i and u2 ~ v_i; u1 joins the tail of the
                        # a-edge into v_i, and u4 when v_2i = v_i: each
                        # union joins one more u
                        tag, lower = ("D", i + 1, STANDARD), c.nv + 3 - (a_in[i] >= 0) - (i == 0)
                    else:
                        # D(0): u0 ~ u1 ~ v_0 along the loop b_0, and u2 ~
                        # u4, joined to the head of an a-edge out of v_0
                        tag = ("D", 1, TILDE)
                        lower = c.nv + 2 - (a_out[0] >= 0) if i == 0 else 0
                    target = targets[FamilyTag(*tag)]
                    description = f"D:{i} couple type {t} position {p} at {edge}"
                    yield description, target, lower == target.nv, d, (t, p), edge

    def fold(base: _FoldState, slot: tuple[int, int], edge: str) -> _FoldState:
        glued, cell = _coupling_base(base, slot[0])
        return _identify_edges_state(glued, cell[slot[1]], edge)

    report = _lemma_report("coupling", max_i, fold, rows())
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
    single pass.  The family that classify names for a both-type class is
    backed by an explicit isomorphism onto the built family complex
    (canonical.isomorphic, which checks its own bijection); a mismatch
    raises RuntimeError."""
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
            if both and tag is not None and isomorphic(morphism, build_family(tag)) is None:
                raise RuntimeError(f"{name} class {k} is not {tag}, as classify names it")
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
