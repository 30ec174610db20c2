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
position 0 of D(0).  Every complex the checkers read is a family state,
built straight from the compact form that the family builder makes
(families.family_state), so the route makes no Morphism.  The checkers
read only states that the builder has checked against the closed form of
their family (the formula check, in families): each is its family
complex cell for cell, with v_x at index x, and the rest argues on the
formula.  The base of a row is C(i), D(i) or Dt(i).  The edge and
coupling checkers build one D(max_i + 1) per variant they read and read
every D(i) or Dt(i), base or T, off it as its full subcomplex on v_0,
..., v_2i (_Discs, on the restriction argument in families); a vertex
row reads no more of C(i) than its index.  Each checker call builds or
reads each T once (_Targets) and names it without keying it: every T,
Dt(1) included, is what classify reports for its own complex
(families.classify argues both).  T's Euler characteristic is read off
its cell counts.  No row builds its base, glues a cell or folds.

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
counts the classes of its lower bound, read off the base, which is read
off the checked D(max_i + 1).

  Own slot.  (t, p) is the slot of b_i's one side, read off the boundary
  rows of the base's faces (_Discs.own_slot): (long, 0), on the long
  face at v_2i, for i >= 1, and (short, 0) for i = 0.  The cell reads
  its relator from that slot as the face does, so each of its edges in
  turn shares a label and a direction with the face's, from joined
  vertices: every u_q joins the face's q-th vertex, and the bound has
  |V(D(i))| classes.  pi is the identity on D(i) and sends the cell onto
  that face, so T = D(i).
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
wrong derivation or prediction can only fail a row, never pass a wrong
one.

Why equal classes make the quotient T.  The fold reads edge classes off
by (tail class, label) and face classes by (relator, first edge class);
see folding.  With vertex classes the fibres of pi, these are the keys
that fix T's cells, and pi hits every cell, so the quotient's cells
biject with T's, boundaries included: the quotient is isomorphic to T,
and the row reports classify(T) and the Euler characteristic of T,
computed once per T.  A row whose certificate does not check fails: it
names its predicted T with the detail "not certified", and nothing is
built, glued or folded to find its actual quotient, so a derivation that
has stopped being complete shows as a failing row.

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
    family_state,
    free_edges,
    odd_part,
    target_presentation,
)
from .folding import (
    _check_immersion,
    _coupling_base,
    _finish,
    _FoldState,
    _identify_edges_state,
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


def _chi(c: Compact) -> int:
    """The Euler characteristic of a compact complex, from its cell counts."""
    return c.nv - len(c.tail) + len(c.ftype)


class _Discs:
    """Every D(i), or every Dt(i), for i <= top, read off one D(top) or
    Dt(top) that the family builder has checked against the formula.  D(i)
    is the full subcomplex of D(top) on v_0, ..., v_2i, ids included (the
    restriction argument, in families), so a read of D(i) keeps the cells
    of D(top) that reach v_2i at most.  The counts, free-edge labels and
    own slots of all i come from one sweep over D(top)'s cells, O(top) in
    all, and no D(i) is built."""

    def __init__(self, variant: str, top: int):
        state = family_state(FamilyTag("D", top, variant))
        c = state.unmerged
        self.gens = state.presentation.generators
        self.edge_ix, self.ftype = state.edge_ix, c.ftype
        # state.neighbours(): key 2g leaves by label g, key 2g + 1 enters
        self.neighbours = state.neighbours()
        # the level of a cell is the least i whose v_2i it reaches
        edge_level = [(max(t, h) + 1) // 2 for t, h in zip(c.tail, c.head)]
        self.face_level = [max(edge_level[e] for e, _ in row) for row in c.boundary]
        self.slots: list[list[tuple[int, int]]] = [[] for _ in c.tail]
        faces_at: list[list[int]] = [[] for _ in range(top + 1)]
        for f, row in enumerate(c.boundary):
            faces_at[self.face_level[f]].append(f)
            for q, (e, _) in enumerate(row):
                self.slots[e].append((f, q))
        edges_at = Counter(edge_level)
        sides, free = [0] * len(c.tail), Counter()  # free: label -> free edges
        ne = nf = 0
        self.chi: list[int] = []
        self.free_labels: list[list[str]] = []
        for i in range(top + 1):
            ne += edges_at[i]
            nf += len(faces_at[i])
            for f in faces_at[i]:
                for e, _ in c.boundary[f]:
                    sides[e] += 1
                    if sides[e] <= 2:
                        free[c.label[e]] += 1 if sides[e] == 1 else -1
            self.chi.append(self.nv(i) - ne + nf)
            self.free_labels.append(sorted(self.gens[g] for g, k in free.items() if k))

    @staticmethod
    def nv(i: int) -> int:
        """|V(D(i))|: v_0, ..., v_2i."""
        return 2 * i + 1

    def neighbour(self, i: int, key: int, x: int) -> int:
        """v_x's neighbour under key in D(i), x <= 2i, or -1: D(top)'s,
        unless it lies beyond v_2i, where D(i) has no edge."""
        y = self.neighbours[key][x]
        return y if y <= 2 * i else -1

    def own_slot(self, i: int) -> tuple[int, int]:
        """b_i's own slot in D(i), as _own_slot reads it off D(i)'s
        boundary rows: its first side on a face of D(i)."""
        return next(
            (self.ftype[f], q)
            for f, q in self.slots[self.edge_ix[f"b{i}"]]
            if self.face_level[f] <= i
        )


class _Target(NamedTuple):
    """A predicted family complex T: its tag, its vertex count nv and its
    Euler characteristic chi, which a row certified onto T reports.  The
    family builder checks every T against the family formula, so its
    vertex v_x has index x, and nv is the modulus of the family map and
    what a row's derived class count must reach."""

    tag: FamilyTag
    nv: int
    chi: int


class _Targets(dict):
    """The targets of one checker call by tag, each built as a family state
    checked against the formula, with no Morphism, or read off a checked
    D(M) (_Discs), and named once."""

    def __missing__(self, tag: FamilyTag) -> _Target:
        c = family_state(tag).unmerged
        return self.add(tag, c.nv, _chi(c))

    def add(self, tag: FamilyTag, nv: int, chi: int) -> _Target:
        """The target of the family complex tag names, with nv vertices and
        Euler characteristic chi.  Each tag a checker predicts, a standard
        C(d) with d odd, a standard D(i) or Dt(1), is what classify reports
        for its complex (families.classify argues it), so it is named by
        itself and keyed by nothing."""
        self[tag] = found = _Target(tag, nv, chi)
        return found


def _shift_period(b_out: list[int], p: int, q: int) -> int:
    """The odd x such that joining v_p and v_q, 2i >= p > q, on a D(i) or
    Dt(i) base forces v_m ~ v_(m + x) for every m (module docstring); 0
    when p <= q or a b-edge that a step needs is missing.  b_out is the
    b-leaving array of a checked D(M) or Dt(M), M >= i: the steps read it
    at v_0 and at v_k, k <= p - q <= 2i, where D(i)'s b-edges are D(M)'s,
    heads v_(k/2) included (_Discs)."""
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


def _check_max_i(name: str, max_i: int) -> None:
    """Refuse a negative max_i before a checker builds anything."""
    if max_i < 0:
        raise ComplexError(f"{name}: max_i must be at least 0, got {max_i}")


def _lemma_report(name: str, max_i: int, rows) -> VerificationReport:
    """Report each (description, target T, certified) row of a checker.  A
    row is certified when the vertex classes it derives from the formula
    of its base equal the fibres of a formula map onto T (module
    docstring); it reports T's class and chi and passes.  Any other row
    fails and reports T's class and chi with the detail "not certified":
    no base is built for it and nothing is glued, folded or classified.
    The wall clock covers generating the rows."""
    started = time.monotonic()
    report = VerificationReport(name, {"max_i": max_i})
    for description, target, certified in rows:
        detail = "" if certified else "not certified"
        report.rows.append(ReportRow(description, str(target.tag), target.chi, certified, detail))
    report.wall_clock_s = time.monotonic() - started
    return report


def check_lemma_vertex_identification(max_i: int) -> VerificationReport:
    """Identify every vertex pair v_u ~ v_v of every odd-index C(i) up to
    max_i; each quotient must be C(d), d = gcd(i, v - u).  A row is
    certified without folding: the family builder checks C(d) against
    the family formula, and the row passes its certificate when d
    divides i, C(d) has d vertices, and the Bezout witness (_in_subgroup)
    shows that d divides v - u and lies in <v - u> of Z/i.  The fold of
    v_u ~ v_v then joins the classes mod d, and the map x -> x mod d of
    C(i) onto C(d) shows that it joins no more (module docstring).  T and
    the certificate depend on i and v - u alone, so each is worked out
    once per (i, v - u), and C(i) is read on its formula, not built.  A
    row that does not check fails as not certified."""
    _check_max_i("vertex-identification", max_i)
    targets = _Targets()

    def certificate(i: int, m: int) -> tuple[_Target, bool]:
        """T and the certificate of each row v_u ~ v_v of C(i), v - u = m."""
        d = gcd(i, m)
        target = targets[FamilyTag("C", d, STANDARD)]
        return target, i % d == 0 and target.nv == d and _in_subgroup(d, m, i)

    def rows():
        for i in range(3, max_i + 1, 2):
            by_m = [certificate(i, m) for m in range(1, i)]
            for u, v in combinations(range(i), 2):
                yield f"C:{i} identify v{u}~v{v}", *by_m[v - u - 1]

    return _lemma_report("vertex-identification", max_i, rows())


def check_lemma_edge_identification(max_i: int) -> VerificationReport:
    """Identify the last b-edge b_i of D(i) and of Dt(i) with each earlier
    b-edge b_j and fold; each quotient must be C(d), d = odd_part(i - j),
    in either variant.  A row is certified without folding: the family
    builder checks C(d), and D(max_i + 1) and Dt(max_i + 1), whose full
    subcomplexes on v_0, ..., v_2i are D(i) and Dt(i) (_Discs), against
    the family formula, and the row derives from the heads v_i and v_j
    the odd x such that the fold joins every class mod x (_shift_period).
    The row passes its certificate when T = C(d) has x vertices: the map
    v_y -> v_(y mod x) of D(i) onto T, or v_y -> v_(-y mod x) of Dt(i)
    (the mirror), then shows that the fold joins no more (module
    docstring).  A row that does not check fails as not certified."""
    _check_max_i("edge-identification", max_i)
    targets = _Targets()

    def rows():
        for variant, label in ((STANDARD, "D"), (TILDE, "Dt")):
            discs = _Discs(variant, max_i + 1)
            b_out = discs.neighbours[2 * discs.gens.index("b")]
            for i in range(1, max_i + 1):
                for j in range(i):
                    target = targets[FamilyTag("C", odd_part(i - j), STANDARD)]
                    certified = _shift_period(b_out, i, j) == target.nv
                    yield f"{label}:{i} identify b{i}~b{j}", target, certified

    return _lemma_report("edge-identification", max_i, rows())


def check_lemma_coupling(max_i: int) -> VerificationReport:
    """Couple each cell type at each matching position to the last b-edge
    b_i of D(i); each move has one outcome, compared up to mirror variant:
    the short cell gives C(odd_part(i)), or D(0) when i = 0; the long cell
    at position 0 gives D(i), or Dt(1) when i = 0 (D(0) is orientation-
    symmetric); the long cell at position 2 gives D(i + 1).  A row is
    certified without gluing, folding or mapping, like an edge row: D(i)
    and a D target are read off one D(max_i + 1) (_Discs), which the
    family builder checks against the family formula as it does every
    other T, and the row counts the classes that its move forces, reading
    the base's own slot, its b-leaving array or an a-neighbour of v_i, by
    the row's case (module docstring).  It passes its certificate when T
    has that many vertices: the formula map of the case onto T then shows
    that the fold joins no more.  A row that does not check fails as not
    certified.  The report's meta lists the free-edge labels of each D(i),
    read off the same disc before any row."""
    _check_max_i("coupling", max_i)
    # D(i) is a base and the target of its own slot, D(i + 1) the target
    # of the long cell at position 2: each read once, here
    discs = _Discs(STANDARD, max_i + 1)
    targets = _Targets()
    for i in range(max_i + 2):
        targets.add(FamilyTag("D", i, STANDARD), discs.nv(i), discs.chi[i])

    def rows():
        a, b = discs.gens.index("a"), discs.gens.index("b")
        b_out, relators = discs.neighbours[2 * b], target_presentation().relators
        for i in range(max_i + 1):
            nv, own = discs.nv(i), discs.own_slot(i)
            for t, word in enumerate(relators):
                for p, (gen, _) in enumerate(word):
                    if gen != "b":
                        continue
                    if (t, p) == own:
                        # every cell vertex joins a vertex of b_i's face
                        tag, lower = ("D", i, STANDARD), nv
                    elif t == TYPE_SHORT:
                        # u0 ~ v_2i ~ v_i joins the classes mod odd_part(i)
                        tag, lower = ("C", odd_part(i), STANDARD), _shift_period(b_out, 2 * i, i)
                    elif p == 2:
                        # u3 ~ v_2i and u2 ~ v_i; u1 joins the tail of the
                        # a-edge into v_i, and u4 when v_2i = v_i: each
                        # union joins one more u
                        a_in = discs.neighbour(i, 2 * a + 1, i)
                        tag, lower = ("D", i + 1, STANDARD), nv + 3 - (a_in >= 0) - (i == 0)
                    else:
                        # D(0): u0 ~ u1 ~ v_0 along the loop b_0, and u2 ~
                        # u4, joined to the head of an a-edge out of v_0
                        tag = ("D", 1, TILDE)
                        lower = nv + 2 - (discs.neighbour(0, 2 * a, 0) >= 0) if i == 0 else 0
                    target = targets[FamilyTag(*tag)]
                    description = f"D:{i} couple type {t} position {p} at b{i}"
                    yield description, target, lower == target.nv

    report = _lemma_report("coupling", max_i, rows())
    report.meta["free_edge_labels_of_D"] = {i: discs.free_labels[i] for i in range(max_i + 1)}
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
