"""The two families of immersions over K = <a,b | b, baBAA>.

Family D(i) is a disc built by repeatedly gluing squares of the long
relator onto a single short-relator cell; family C(i) closes D(i) up by
identifying its last b-edge with its first.  Their skeletons are explicit
and share one form, built by one routine:

  vertices v0..v(n-1); a(j): v(j mod n) -> v(j-1) for 1 <= j <= #a;
  b(j): v(2j mod n) -> v(j) for 0 <= j < #b;
  (n, #a, #b) = (2i+1, 2i, i+1) for D(i), and (i, i, i) for C(i), i odd;
  faces: the short cell at v0, and a long cell at v(2j mod n) for
  1 <= j <= i, or for 0 <= j < i in the tilde variant.

The tilde variants reverse the orientation of every a-edge.  For even i,
C(i) equals C applied to the largest odd divisor of i, and the constructor
delegates accordingly (the identification cascade that proves this is
exercised separately through identify_edges).  A face sits at its start,
the tail of its first edge: both relators start with b.  So the long
faces of C(i) start at every vertex, those of D(i) at v2, v4, ..., v2i
and those of Dt(i) at v0, v2, ..., v(2i-2).  _closed_form writes this
down once.

Face boundaries are not built from that list; they are derived by
tracing every relator through the skeleton (complexes.trace_relator) from
each edge that carries the relator's first letter, relators in order and
edges in shortlex order.  The trace is deterministic because each vertex
has at most one incident edge per (label, direction), and it either closes
up (yielding a face) or not (yielding none).  The short relator b closes
only on the b-loop b0; the long relator closes exactly i times in D(i) and
in C(i), so both have i + 1 faces.

The routine builds the integer form directly: the complexes.Compact of
the complex, cells numbered in shortlex id order, with the ids
(_assemble).  The routine checks that form with the library's one
immersion check (complexes._first_failure, through
folding._check_immersion).  family_state makes the unmerged fold state
of that form, which the lemma checkers read for every disc and target
with no Morphism in between.  classify keys each candidate family
complex off the same form, built afresh for each comparison, and keeps
no key between calls.  build_family, build_D and build_C make the
Morphism of the same form, through TwoComplex.make, for the CLI and
library callers.

The formula check.  _assemble compares the (relator, start) pairs of the
faces it traces with the formula's list, and raises RuntimeError when they
differ, so every route to a family complex is checked once, when it is
built: family_state, build_family and the keys that classify compares.
The skeleton is the formula's, since it is built from it: v_x has index x
and the edges, ids included, are the formula's, so sigma_a and sigma_b
are exactly the skeleton.  The skeleton is folded: per label, the
formula's tails are distinct, and so are its heads.  So a relator read
from a vertex traces at most one path, and a face, whose boundary reads
its relator round a closed path from its start (folding._check_immersion),
is fixed by its (relator, start).  A checked complex is its family complex
cell for cell, and the lemma checkers (verify) argue on the formula.

The restriction.  The D formula reduces no index mod n: a(j) runs v(j) ->
v(j - 1), or back in the tilde variant, and b(j) runs v(2j) -> v(j).  So
for M >= i, D(i) is the full subcomplex of D(M) spanned by v0, ..., v2i,
ids included.  Its edges a(1), ..., a(2i) and b(0), ..., b(i) are exactly
those of D(M) with both ends there.  Its long cells are exactly those of
D(M) that stay there: the cell at v(2j) runs through v(2j), v(j), v(j -
1), v(2j - 2) and v(2j - 1) in D, so it reaches v(2j), and through v(2j),
v(j), v(j + 1), v(2j + 2) and v(2j + 1) in Dt, so it reaches v(2j + 2);
the cells of D(i) at v2, ..., v2i and those of Dt(i) at v0, ..., v(2i -
2) are the ones that reach v2i at most, and the short cell at v0 is in
both.  Faces are numbered alike, by relator and then by the shortlex
order of the b-edge they are traced from.  This is a fact of the
formula, not a run check: the lemma checkers (verify) build one D(M) per
variant, checked against the formula as every family complex is, and
read each D(i) or Dt(i), i <= M, off it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import _bfs
from .complexes import (
    ComplexError,
    Compact,
    Morphism,
    _compact,
    _morphism,
    presentation_complex,
    trace_relator,
)
from .folding import _check_immersion, _FoldState
from .presentations import Presentation, parse_presentation

KP_TEXT = "a,b|b,baBAA"
TYPE_SHORT = 0  # cells over the relator b
TYPE_LONG = 1  # cells over the relator b a b^-1 a^-1 a^-1

STANDARD = "standard"
TILDE = "tilde"

_target: Presentation | None = None


def target_presentation() -> Presentation:
    global _target
    if _target is None:
        _target = parse_presentation(KP_TEXT)
    return _target


def kp() -> Morphism:
    """The presentation complex itself: one vertex, loops a and b, both faces."""
    return presentation_complex(target_presentation())


@dataclass(frozen=True)
class FamilyTag:
    family: str  # "D" or "C"
    index: int
    variant: str  # "standard" or "tilde"

    def __post_init__(self):
        if self.family not in ("D", "C"):
            raise ComplexError(f"unknown family {self.family!r}")
        if self.variant not in (STANDARD, TILDE):
            raise ComplexError(f"unknown variant {self.variant!r}")
        if self.index < (1 if self.family == "C" else 0):
            raise ComplexError(f"index {self.index} out of range for {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{'t' if self.variant == TILDE else ''}:{self.index}"


def parse_family_spec(text: str) -> FamilyTag:
    head, sep, tail = text.partition(":")
    if not sep or head not in ("D", "C", "Dt", "Ct") or not (tail.isascii() and tail.isdigit()):
        raise ComplexError(
            f"family spec {text!r} must look like 'D:3', 'C:5', 'Dt:3' or 'Ct:5'"
        )
    return FamilyTag(head[0], int(tail), TILDE if head.endswith("t") else STANDARD)


def odd_part(i: int) -> int:
    """Largest odd divisor."""
    if i < 1:
        raise ComplexError("odd_part needs a positive integer")
    while i % 2 == 0:
        i //= 2
    return i


def _closed_form(i: int, n: int, na: int, nb: int, variant: str):
    """The complex of index i on the skeleton of the module docstring with
    (n, #a, #b) = (n, na, nb) in the given variant, by formula, as (vertex
    ids, edges, faces): an edge is (id, tail, head, label), in shortlex id
    order, as complexes.Compact numbers edges, and a face is its (relator,
    start vertex), sorted.  Shortlex compares length first, so the ids come
    by the digit count of their index: for each count, the a(j) and then
    the b(j), each in index order."""
    gens = target_presentation().generators
    a, b = (gens.index(g) for g in "ab")
    edges = []
    low = 0
    while low <= max(na, nb - 1):
        high = 10 * low or 10  # the indices low..high - 1 have one digit count
        for j in range(max(low, 1), min(high, na + 1)):
            tail, head = j % n, j - 1
            if variant == TILDE:
                tail, head = head, tail
            edges.append((f"a{j}", tail, head, a))
        edges += [(f"b{j}", 2 * j % n, j, b) for j in range(low, min(high, nb))]
        low = high
    first = 1 if variant == STANDARD else 0
    faces = [(TYPE_SHORT, 0)] + [(TYPE_LONG, 2 * j % n) for j in range(first, first + i)]
    return [f"v{x}" for x in range(n)], edges, sorted(faces)


def _assemble(family: str, i: int, n: int, na: int, nb: int, variant: str):
    """family(i) on the skeleton of _closed_form(i, n, na, nb, variant), as
    (compact form, (vertex ids, edge ids, face ids)): cells are numbered in
    shortlex id order, as complexes.Compact requires, so vertex v_x has
    index x.  The faces are traced, not read off the formula.

    What the formula could get wrong is checked, each raising RuntimeError:
    the complex immerses (folding._check_immersion: the skeleton is folded,
    each boundary reads its relator round a closed path, and no two sides
    of one edge share a slot), the sorted (relator, start) pairs of the
    traced faces are the formula's, which lists i + 1 faces, and C has no
    free faces.  The generic checks of TwoComplex.make hold by construction:
    ids are unique, since the formula's indices are distinct per sort, and
    every reference is in range, since a tail is reduced mod n, a head is
    j - 1 or j with #a <= n and #b <= n in both formulas, and a side's edge
    is read off the skeleton's own edges."""
    pres = target_presentation()
    gens = pres.generators
    vids, edges, faces = _closed_form(i, n, na, nb, variant)
    eids, tails, heads, labels = (list(column) for column in zip(*edges))
    forward = {g: {} for g in gens}
    backward = {g: {} for g in gens}
    edge_at: dict[tuple[str, int], int] = {}
    for e, (tail, head, g) in enumerate(zip(tails, heads, labels)):
        gen = gens[g]
        forward[gen][tail] = head
        backward[gen][head] = tail
        edge_at[gen, tail] = e
    ftype, boundary, starts = [], [], []
    for rix, word in enumerate(pres.relators):
        g0, sign0 = gens.index(word[0][0]), word[0][1]
        for e, g in enumerate(labels):
            if g != g0:
                continue
            trace = trace_relator(word, forward, backward, tails[e] if sign0 > 0 else heads[e])
            if trace is None:
                continue
            ftype.append(rix)
            starts.append((rix, trace[0]))
            boundary.append([(edge_at[gen, tail], sign) for (gen, sign), tail in zip(word, trace)])
    c = Compact(len(gens), n, tails, heads, labels, ftype, boundary)
    ids = vids, eids, [f"f{k}" for k in range(len(ftype))]
    name = f"{family}{'t' if variant == TILDE else ''}({i})"
    _check_immersion(c, pres, ids, name)
    if sorted(starts) != faces:
        raise RuntimeError(f"{name} is off the family formula")
    if family == "C" and free_edges(c):
        raise RuntimeError(f"{name} has free faces")
    return c, ids


def free_edges(c: Compact) -> list[int]:
    """The edges of c that occur exactly once over all boundaries, in
    index order."""
    count = [0] * len(c.tail)
    for sides in c.boundary:
        for e, _ in sides:
            count[e] += 1
    return [e for e, k in enumerate(count) if k == 1]


def _form(tag: FamilyTag):
    """_assemble of tag's complex; an even C(i) is C(odd_part(i))."""
    i = tag.index
    if tag.family == "D":
        return _assemble("D", i, 2 * i + 1, 2 * i, i + 1, tag.variant)
    i = odd_part(i)
    return _assemble("C", i, i, i, i, tag.variant)


def family_state(tag: FamilyTag) -> _FoldState:
    """The unmerged fold state of tag's complex, built from its compact form
    with no Morphism in between; _assemble has checked that it immerses
    and is on the family formula."""
    c, ids = _form(tag)
    return _FoldState.from_compact(c, target_presentation(), ids)


def build_family(tag: FamilyTag) -> Morphism:
    """tag's complex as a Morphism, through TwoComplex.make, as every
    library caller gets it; _assemble has checked that it immerses and is
    on the family formula."""
    c, ids = _form(tag)
    return _morphism(c, target_presentation(), ids)


def build_D(i: int, variant: str = STANDARD) -> Morphism:
    if i < 0:
        raise ComplexError("build_D needs i >= 0")
    return build_family(FamilyTag("D", i, variant))


def build_C(i: int, variant: str = STANDARD) -> Morphism:
    if i < 1:
        raise ComplexError("build_C needs i >= 1")
    return build_family(FamilyTag("C", i, variant))


def _candidates(c: Compact) -> list[FamilyTag]:
    """The family tags with c's vertex and face counts, in lookup order."""
    n = c.nv
    if n % 2 == 0:
        return []
    return [
        tag
        for tag in (
            FamilyTag("C", n, STANDARD),
            FamilyTag("C", n, TILDE),
            FamilyTag("D", (n - 1) // 2, STANDARD),
            FamilyTag("D", (n - 1) // 2, TILDE),
        )
        if tag.index + 1 == len(c.ftype)
    ]


def _match(c: Compact, key: tuple) -> FamilyTag | None:
    """The first candidate tag of c whose key is c's breadth-first key;
    each candidate is built and keyed afresh."""
    return next((tag for tag in _candidates(c) if _bfs(_form(tag)[0])[0] == key), None)


def classify(f: Morphism) -> FamilyTag | None:
    """The family tag whose built complex is isomorphic to f, a morphism
    over the standard target, or None.

    Every family complex is folded, connected and non-empty, so its
    breadth-first key (canonical._bfs) exists and decides isomorphism with
    it; a complex without such a key is isomorphic to none of them.  Only
    the family complexes with f's vertex count and face count are built
    and tried: C(i) and D(i) have i + 1 faces each.  Lookup order prefers
    C over D and standard over tilde, so when a tilde complex happens to
    be isomorphic to its standard sibling the standard tag is reported.

    So a standard family complex is named by its own tag.  C(n), n odd,
    has n vertices and n + 1 faces, and is the first candidate of both
    counts.  D(i) has 2i + 1 vertices and i + 1 faces; the only tags
    before it in lookup order with 2i + 1 vertices are C(2i + 1) and its
    mirror, which have 2i + 2 faces, so they are no candidates.

    And Dt(i), i >= 1, is named by its own tag.  The only tag before it
    in lookup order with its vertex and face counts is D(i), by the same
    count.  Dt(i) is not isomorphic to D(i): b0 is the one b-loop of
    both, at v0, so an isomorphism fixes v0, and the edge a1 leaves v0
    in Dt(i) while no a-edge leaves v0 in D(i).  The lemma checkers
    (verify) name every target by its tag on these two arguments and key
    none.
    """
    if f.presentation != target_presentation():
        raise ComplexError("classify: morphism is not over the standard target")
    c = _compact(f)
    found = _bfs(c) if _candidates(c) else None
    return None if found is None else _match(c, found[0])
