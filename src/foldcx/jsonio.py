"""JSON serialization of labeled complexes and DOT export of 1-skeletons.

The JSON layout is fixed so that dump(load(text)) == text for any file
produced here: cells are listed in shortlex id order, keys in a fixed
order, indentation is two spaces.  Loading is the one boundary where
documents enter: it checks that every field it reads is there and has the
right JSON type, then validates the morphism in full, so any malformed
document raises ComplexError saying what is wrong and where.
"""

from __future__ import annotations

import json

from .complexes import ComplexError, Edge, Face, Morphism, TwoComplex, validate
from .presentations import PresentationError, parse_presentation


def morphism_to_json(f: Morphism) -> str:
    cx = f.complex
    doc = {
        "presentation": str(f.presentation),
        "vertices": list(cx.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "label": f.edge_labels[e.id]}
            for e in cx.edges
        ],
        "faces": [
            {
                "id": face.id,
                "type": f.face_types[face.id],
                "boundary": [
                    ("+" if sign > 0 else "-") + eid for eid, sign in face.boundary
                ],
            }
            for face in cx.faces
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _malformed(what: str) -> ComplexError:
    return ComplexError(f"malformed document: {what}")


def _parse_side(text: str, where: str) -> tuple[str, int]:
    if len(text) < 2 or text[0] not in "+-":
        raise _malformed(f"{where} side {text!r:.40} must look like '+edge' or '-edge'")
    return text[1:], 1 if text[0] == "+" else -1


_KINDS = {str: "a string", int: "an integer", list: "a list"}


def _get(obj, name: str, kind: type, where: str = "the document"):
    """obj[name], checked to be a field of the given kind of the JSON object
    that where names; an integer is not a bool."""
    if not isinstance(obj, dict):
        raise _malformed(f"{where} must be an object, got {obj!r:.40}")
    if name not in obj:
        raise _malformed(f"{where} has no {name}")
    if type(obj[name]) is not kind:
        raise _malformed(f"{name} of {where} must be {_KINDS[kind]}, got {obj[name]!r:.40}")
    return obj[name]


def _strings(obj, name: str, where: str = "the document") -> list[str]:
    value = _get(obj, name, list, where)
    for x in value:
        if type(x) is not str:
            raise _malformed(f"{name} of {where} lists {x!r:.40}, not a string")
    return value


def morphism_from_json(text: str) -> Morphism:
    """The morphism a document describes, checked in full: JSON shape,
    structure, labels and relator types.  Every way a document can be wrong
    raises ComplexError, so what this returns passes validate."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise _malformed("nested too deeply") from None
    except ValueError as exc:
        raise _malformed(str(exc)) from None
    try:
        pres = parse_presentation(_get(doc, "presentation", str))
    except PresentationError as exc:
        raise _malformed(f"presentation: {exc}") from None
    edges, labels = [], {}
    for e in _get(doc, "edges", list):
        eid = _get(e, "id", str, "an edge")
        where = f"edge {eid}"
        tail, head, label = (_get(e, n, str, where) for n in ("tail", "head", "label"))
        edges.append(Edge(eid, tail, head))
        labels[eid] = label
    faces, types = [], {}
    for x in _get(doc, "faces", list):
        fid = _get(x, "id", str, "a face")
        where = f"face {fid}"
        sides = tuple(_parse_side(s, where) for s in _strings(x, "boundary", where))
        faces.append(Face(fid, sides))
        types[fid] = _get(x, "type", int, where)
    cx = TwoComplex.make(_strings(doc, "vertices"), edges, faces)
    morphism = Morphism(cx, pres, labels, types)
    problems = validate(morphism)
    if problems:
        raise ComplexError("; ".join(problems))
    return morphism


def _quoted(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(f: Morphism) -> str:
    """The 1-skeleton as a DOT digraph; arrows carry the edge orientation,
    attributes carry the generator label and edge id.  Every id and label
    is a quoted string with backslash and double quote escaped."""
    lines = ["digraph skeleton {"]
    for v in f.complex.vertices:
        lines.append(f"  {_quoted(v)};")
    for e in f.complex.edges:
        lines.append(
            f"  {_quoted(e.tail)} -> {_quoted(e.head)} "
            f"[label={_quoted(f.edge_labels[e.id])} id={_quoted(e.id)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
