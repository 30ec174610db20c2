"""The two families of immersions over K = <a,b | b, baBAA>.

Family D(i) is a disc built by repeatedly gluing squares of the long
relator onto a single short-relator cell; family C(i) closes D(i) up by
identifying its last b-edge with its first.  Their skeletons are explicit:

  D(i): vertices v0..v(2i); a(j): v(j) -> v(j-1); b(j): v(2j) -> v(j).
  C(i), i odd: vertices v0..v(i-1); a(j): v(j mod i) -> v(j-1);
               b(j): v(2j mod i) -> v(j).

The tilde variants reverse the orientation of every a-edge.  For even i,
C(i) equals C applied to the largest odd divisor of i, and the constructor
delegates accordingly (the identification cascade that proves this is
exercised separately through identify_edges).

Face boundaries are not listed explicitly anywhere; they are derived by
tracing the long relator through the skeleton starting at each b-edge.
The trace is deterministic because each vertex has at most one incident
edge per (label, direction), and it either closes up (yielding a face) or
runs into a missing edge (yielding none).  D(i) admits exactly i such
traces, C(i) exactly i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import canonical_form
from .complexes import (
    ComplexError,
    Edge,
    Face,
    Morphism,
    TwoComplex,
    free_faces,
    immersion_witness,
    presentation_complex,
)
from .presentations import Presentation, Word, parse_presentation

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
    if not sep or head not in ("D", "C", "Dt", "Ct") or not tail.isdigit():
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


def _trace_faces(cx: TwoComplex, labels: dict[str, str], word: Word) -> list:
    """All closed traces of `word` through the skeleton, one per starting
    b-edge (position 0 of the long relator reads a forward b)."""
    outgoing: dict[tuple[str, str], str] = {}
    incoming: dict[tuple[str, str], str] = {}
    for e in cx.edges:
        okey, ikey = (e.tail, labels[e.id]), (e.head, labels[e.id])
        if okey in outgoing or ikey in incoming:
            raise RuntimeError("cannot trace faces: skeleton not folded")
        outgoing[okey] = e.id
        incoming[ikey] = e.id
    gen0, sign0 = word[0]
    if sign0 < 0:
        raise RuntimeError("cannot trace faces: relator starts with an inverse")
    boundaries = []
    for start in cx.edges:
        if labels[start.id] != gen0:
            continue
        sides = [(start.id, sign0)]
        at = start.head
        ok = True
        for gen, sign in word[1:]:
            eid = (outgoing if sign > 0 else incoming).get((at, gen))
            if eid is None:
                ok = False
                break
            sides.append((eid, sign))
            e = cx.edge_by_id[eid]
            at = e.head if sign > 0 else e.tail
        if ok and at == start.tail:
            boundaries.append(tuple(sides))
    return boundaries


def _assemble(vertices, edges, labels, type1_edges) -> Morphism:
    pres = target_presentation()
    skeleton = TwoComplex.make(vertices, edges, [])
    faces = [
        Face(f"f{k}", ((eid, 1),)) for k, eid in enumerate(sorted(type1_edges))
    ]
    types = {f.id: TYPE_SHORT for f in faces}
    for boundary in _trace_faces(skeleton, labels, pres.relators[TYPE_LONG]):
        fid = f"f{len(faces)}"
        faces.append(Face(fid, boundary))
        types[fid] = TYPE_LONG
    out = Morphism(
        TwoComplex.make(vertices, edges, faces), pres, dict(labels), types
    )
    witness = immersion_witness(out)
    if witness is not None:
        raise RuntimeError(f"family complex is not an immersion: {witness}")
    return out


def build_D(i: int, variant: str = STANDARD) -> Morphism:
    if i < 0:
        raise ComplexError("build_D needs i >= 0")
    if variant not in (STANDARD, TILDE):
        raise ComplexError(f"unknown variant {variant!r}")
    vertices = [f"v{j}" for j in range(2 * i + 1)]
    edges, labels = [], {}
    for j in range(1, 2 * i + 1):
        tail, head = f"v{j}", f"v{j - 1}"
        if variant == TILDE:
            tail, head = head, tail
        edges.append(Edge(f"a{j}", tail, head))
        labels[f"a{j}"] = "a"
    for j in range(i + 1):
        edges.append(Edge(f"b{j}", f"v{2 * j}", f"v{j}"))
        labels[f"b{j}"] = "b"
    out = _assemble(vertices, edges, labels, ["b0"])
    if len(out.complex.faces) != i + 1:
        raise RuntimeError(f"D({i}) has {len(out.complex.faces)} faces, not {i + 1}")
    return out


def build_C(i: int, variant: str = STANDARD) -> Morphism:
    if i < 1:
        raise ComplexError("build_C needs i >= 1")
    if variant not in (STANDARD, TILDE):
        raise ComplexError(f"unknown variant {variant!r}")
    if i % 2 == 0:
        return build_C(odd_part(i), variant)
    vertices = [f"v{j}" for j in range(i)]
    edges, labels = [], {}
    for j in range(1, i + 1):
        tail, head = f"v{j % i}", f"v{j - 1}"
        if variant == TILDE:
            tail, head = head, tail
        edges.append(Edge(f"a{j}", tail, head))
        labels[f"a{j}"] = "a"
    for j in range(i):
        edges.append(Edge(f"b{j}", f"v{(2 * j) % i}", f"v{j}"))
        labels[f"b{j}"] = "b"
    out = _assemble(vertices, edges, labels, ["b0"])
    if len(out.complex.faces) != i + 1:
        raise RuntimeError(f"C({i}) has {len(out.complex.faces)} faces, not {i + 1}")
    if free_faces(out.complex):
        raise RuntimeError(f"C({i}) has free faces")
    return out


def build_family(tag: FamilyTag) -> Morphism:
    return (build_D if tag.family == "D" else build_C)(tag.index, tag.variant)


_canon_cache: dict[FamilyTag, bytes] = {}


def _family_form(tag: FamilyTag) -> bytes:
    if tag not in _canon_cache:
        _canon_cache[tag] = canonical_form(build_family(tag))
    return _canon_cache[tag]


def classify(f: Morphism) -> FamilyTag | None:
    """The family tag whose built complex is isomorphic to f, or None.

    Lookup order prefers C over D and standard over tilde, so when a tilde
    complex happens to be isomorphic to its standard sibling the standard
    tag is reported.
    """
    if f.presentation != target_presentation():
        raise ComplexError("classify: morphism is not over the standard target")
    n = len(f.complex.vertices)
    if n % 2 == 0:
        return None
    candidates = []
    if n >= 1:
        candidates += [FamilyTag("C", n, STANDARD), FamilyTag("C", n, TILDE)]
    candidates += [
        FamilyTag("D", (n - 1) // 2, STANDARD),
        FamilyTag("D", (n - 1) // 2, TILDE),
    ]
    form = canonical_form(f)
    for tag in candidates:
        if _family_form(tag) == form:
            return tag
    return None
