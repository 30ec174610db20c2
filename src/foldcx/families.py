"""The two families of immersions over K = <a,b | b, baBAA>.

Family D(i) is a disc built by repeatedly gluing squares of the long
relator onto a single short-relator cell; family C(i) closes D(i) up by
identifying its last b-edge with its first.  Their skeletons are explicit
and share one form, built by one routine:

  vertices v0..v(n-1); a(j): v(j mod n) -> v(j-1) for 1 <= j <= #a;
  b(j): v(2j mod n) -> v(j) for 0 <= j < #b;
  (n, #a, #b) = (2i+1, 2i, i+1) for D(i), and (i, i, i) for C(i), i odd.

The tilde variants reverse the orientation of every a-edge.  For even i,
C(i) equals C applied to the largest odd divisor of i, and the constructor
delegates accordingly (the identification cascade that proves this is
exercised separately through identify_edges).

Face boundaries are not listed explicitly anywhere; they are derived by
tracing every relator through the skeleton (complexes.trace_relator) from
each edge that carries the relator's first letter, relators in order and
edges in shortlex order.  The trace is deterministic because each vertex
has at most one incident edge per (label, direction), and it either closes
up (yielding a face) or not (yielding none).  The short relator b closes
only on the b-loop b0; the long relator closes exactly i times in D(i) and
in C(i), so both have i + 1 faces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import Compact, _bfs, _compact
from .complexes import (
    ComplexError,
    Edge,
    Face,
    Morphism,
    TwoComplex,
    free_faces,
    id_key,
    immersion_witness,
    presentation_complex,
    trace_relator,
)
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


def _assemble(family: str, i: int, n: int, na: int, nb: int, variant: str) -> Morphism:
    """family(i) on the skeleton of the module docstring with (n, #a, #b) =
    (n, na, nb) in the given variant; its faces are traced, and there must
    be i + 1 of them."""
    if variant not in (STANDARD, TILDE):
        raise ComplexError(f"unknown variant {variant!r}")
    edges, labels = [], {}
    for j in range(1, na + 1):
        tail, head = f"v{j % n}", f"v{j - 1}"
        if variant == TILDE:
            tail, head = head, tail
        edges.append(Edge(f"a{j}", tail, head))
        labels[f"a{j}"] = "a"
    for j in range(nb):
        edges.append(Edge(f"b{j}", f"v{2 * j % n}", f"v{j}"))
        labels[f"b{j}"] = "b"
    pres = target_presentation()
    forward = {g: {} for g in pres.generators}
    backward = {g: {} for g in pres.generators}
    edge_at: dict[tuple[str, str], str] = {}
    for e in edges:
        gen = labels[e.id]
        if e.tail in forward[gen] or e.head in backward[gen]:
            raise RuntimeError("cannot trace faces: skeleton not folded")
        forward[gen][e.tail] = e.head
        backward[gen][e.head] = e.tail
        edge_at[gen, e.tail] = e.id
    ordered = sorted(edges, key=lambda e: id_key(e.id))
    faces, types = [], {}
    for rix, word in enumerate(pres.relators):
        gen0, sign0 = word[0]
        for e in ordered:
            if labels[e.id] != gen0:
                continue
            start = e.tail if sign0 > 0 else e.head
            tails = trace_relator(word, forward, backward, start)
            if tails is not None:
                fid = f"f{len(faces)}"
                sides = tuple((edge_at[g, t], s) for (g, s), t in zip(word, tails))
                faces.append(Face(fid, sides))
                types[fid] = rix
    if len(faces) != i + 1:
        raise RuntimeError(f"{family}({i}) has {len(faces)} faces, not {i + 1}")
    vertices = [f"v{j}" for j in range(n)]
    out = Morphism(TwoComplex.make(vertices, edges, faces), pres, labels, types)
    witness = immersion_witness(out)
    if witness is not None:
        raise RuntimeError(f"family complex is not an immersion: {witness}")
    return out


def build_D(i: int, variant: str = STANDARD) -> Morphism:
    if i < 0:
        raise ComplexError("build_D needs i >= 0")
    return _assemble("D", i, 2 * i + 1, 2 * i, i + 1, variant)


def build_C(i: int, variant: str = STANDARD) -> Morphism:
    if i < 1:
        raise ComplexError("build_C needs i >= 1")
    if i % 2 == 0:
        return build_C(odd_part(i), variant)
    out = _assemble("C", i, i, i, i, variant)
    if free_faces(out.complex):
        raise RuntimeError(f"C({i}) has free faces")
    return out


def build_family(tag: FamilyTag) -> Morphism:
    return (build_D if tag.family == "D" else build_C)(tag.index, tag.variant)


_key_cache: dict[FamilyTag, tuple] = {}


def _family_key(tag: FamilyTag) -> tuple:
    if tag not in _key_cache:
        _key_cache[tag] = _bfs(_compact(build_family(tag)))[0]
    return _key_cache[tag]


def classify_compact(c: Compact) -> FamilyTag | None:
    """The family tag whose built complex is isomorphic to c, a complex
    over the standard target in compact form, or None.

    Every family complex is folded, connected and non-empty, so its
    breadth-first key (canonical._bfs) exists and decides isomorphism with
    it; a complex without such a key is isomorphic to none of them.  Only
    the family complexes with c's vertex count and face count are built
    and tried: C(i) and D(i) have i + 1 faces each.  Lookup order prefers
    C over D and standard over tilde, so when a tilde complex happens to
    be isomorphic to its standard sibling the standard tag is reported.
    """
    found = _bfs(c) if _candidates(c) else None
    return None if found is None else _match(c, found[0])


def classify_built(tag: FamilyTag, c: Compact) -> FamilyTag | None:
    """classify_compact(c) for c the compact form of build_family(tag).
    c's key is then tag's own, so it is cached for tag from c, and tag's
    complex is not built a second time to key it."""
    key = _bfs(c)[0]
    _key_cache.setdefault(tag, key)
    return _match(c, key)


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
    """The first candidate tag of c whose key is c's breadth-first key."""
    return next((tag for tag in _candidates(c) if _family_key(tag) == key), None)


def classify(f: Morphism) -> FamilyTag | None:
    """The family tag whose built complex is isomorphic to f, or None."""
    if f.presentation != target_presentation():
        raise ComplexError("classify: morphism is not over the standard target")
    return classify_compact(_compact(f))
