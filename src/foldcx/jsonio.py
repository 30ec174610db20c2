"""JSON serialization of labeled complexes and DOT export of 1-skeletons.

The JSON layout is fixed so that dump(load(text)) == text for any file
produced here: cells are listed in shortlex id order, keys in a fixed
order, indentation is two spaces.  Loading checks the JSON type of every
field it reads, so a malformed document raises ComplexError (a missing
field a KeyError), never a TypeError.
"""

from __future__ import annotations

import json

from .complexes import ComplexError, Edge, Face, Morphism, TwoComplex
from .presentations import parse_presentation


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


def _parse_side(text: str) -> tuple[str, int]:
    if len(text) < 2 or text[0] not in "+-":
        raise ValueError(f"boundary side {text!r} must look like '+edge' or '-edge'")
    return text[1:], 1 if text[0] == "+" else -1


_KINDS = {str: "a string", int: "an integer", list: "a list"}


def _get(obj, name: str, kind: type):
    """obj[name], checked to be a JSON object's field of the given kind; an
    integer is not a bool."""
    if not isinstance(obj, dict):
        raise ComplexError(f"malformed document: expected an object, got {obj!r:.40}")
    if type(obj[name]) is not kind:
        raise ComplexError(
            f"malformed document: {name} must be {_KINDS[kind]}, got {obj[name]!r:.40}"
        )
    return obj[name]


def _strings(obj, name: str) -> list[str]:
    value = _get(obj, name, list)
    for x in value:
        if type(x) is not str:
            raise ComplexError(f"malformed document: {name} lists {x!r:.40}, not a string")
    return value


def morphism_from_json(text: str) -> Morphism:
    doc = json.loads(text)
    pres = parse_presentation(_get(doc, "presentation", str))
    edges, labels = [], {}
    for e in _get(doc, "edges", list):
        eid, tail, head, label = (_get(e, n, str) for n in ("id", "tail", "head", "label"))
        edges.append(Edge(eid, tail, head))
        labels[eid] = label
    faces, types = [], {}
    for x in _get(doc, "faces", list):
        fid = _get(x, "id", str)
        faces.append(Face(fid, tuple(_parse_side(s) for s in _strings(x, "boundary"))))
        types[fid] = _get(x, "type", int)
    cx = TwoComplex.make(_strings(doc, "vertices"), edges, faces)
    return Morphism(cx, pres, labels, types)


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
