"""Canonical forms and explicit isomorphisms of labeled 2-complexes.

Two morphisms into the same presentation complex are isomorphic when a
bijection of cells preserves edge labels, edge orientations and face
types, and commutes with the boundary attachments (position by position;
boundaries have no rotational freedom because they are pinned to relator
position 0).

canonical_form computes a byte string equal for two morphisms exactly when
they are isomorphic.  It first runs _bfs on Compact, the integer form that
both Morphism (through _compact) and the fold engine's _FoldState (through
its compact method) produce: a breadth-first numbering from each base
vertex of least local signature, which is forced when the skeleton is
folded, dropping a base at its first label-0 edge row above the best
base's.  _bfs returns None when the skeleton is not folded, is
disconnected or has no vertices.  Those inputs go through _refined:
iterative partition refinement on the colored incidence structure, with
backtracking on tied classes: individualize one member of the first
non-singleton class (vertices first, then edges), re-refine, and keep the
lexicographically least serialization over all branches.  Faces never
need individualization: once vertices and edges are discrete, color-tied
faces are literal duplicates and serialize identically.

The split is sound because being folded, connected and non-empty is
invariant under isomorphism, and because both serializations list every
edge with its label and endpoints and every face with its type and
boundary over edge positions, so equal bytes rebuild isomorphic complexes
whichever route produced them.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .complexes import ComplexError, Morphism, id_key

Labeling = tuple[dict[str, int], dict[str, int], dict[str, int]]


class Compact(NamedTuple):
    """A labeled complex over integers: cells are numbered in shortlex id
    order, edge labels and face types are generator and relator indices,
    and boundaries list (edge index, sign) pairs."""

    ngens: int
    nv: int
    tail: list[int]
    head: list[int]
    label: list[int]
    ftype: list[int]
    boundary: list[list[tuple[int, int]]]


def _compact(f: Morphism) -> Compact:
    cx = f.complex
    gen_ix = {g: k for k, g in enumerate(f.presentation.generators)}
    vix = {v: k for k, v in enumerate(cx.vertices)}
    eix = {e.id: k for k, e in enumerate(cx.edges)}
    return Compact(
        len(gen_ix),
        len(vix),
        [vix[e.tail] for e in cx.edges],
        [vix[e.head] for e in cx.edges],
        [gen_ix[f.edge_labels[e.id]] for e in cx.edges],
        [f.face_types[x.id] for x in cx.faces],
        [[(eix[eid], sign) for eid, sign in x.boundary] for x in cx.faces],
    )


def _bfs(c: Compact):
    """Breadth-first canonical key of a complex with a folded, connected,
    non-empty skeleton, as (key, vix, eix, fix); None otherwise.

    key is (edge rows, face rows): one (label, tail, head) row per edge in
    canonical edge order, and one (type, ((edge, sign), ...)) row per face
    in sorted order.  vix, eix and fix map each compact cell index to its
    canonical number.

    Why the key is canonical: in a folded skeleton every vertex has at
    most one edge per (label, direction), so a fixed base forces the whole
    numbering vix of a connected complex.  Every edge is then determined
    by its (label, tail), so ordering edges by (label, tail) forces eix,
    and face rows over eix are fixed up to their order; sorting them
    compares them as a multiset, so duplicate or colliding faces
    serialize identically and map onto each other in either order.  The
    bases of least local signature (which (label, direction) slots are
    occupied) form an isomorphism-invariant class, so the least key over
    them is canonical.  Faces need not be injective at edges for this
    argument, only the skeleton.

    Why a base may be dropped early: the key compares its edge rows first,
    and the label-0 rows (0, k, head) come first among them, one for each
    vertex k with an outgoing label-0 edge, in increasing k.  Every base
    yields the same number of them, and row k is fixed as soon as the
    breadth-first pass has probed vertex k's neighbours.  So once a row of
    a base exceeds the row at the same place of the best base so far,
    that base's key exceeds the best key, and the base would never be
    kept.  Dropping it at that row leaves the least key, and the first
    base reaching it, unchanged.  The first base runs in full, so a
    disconnected input is still detected.
    """
    ngens, nv = c.ngens, c.nv
    if not nv:
        return None
    head, tail = c.head, c.tail
    out = [-1] * (nv * ngens)
    into = [-1] * (nv * ngens)
    for e, (t, h, g) in enumerate(zip(tail, head, c.label)):
        if out[t * ngens + g] >= 0 or into[h * ngens + g] >= 0:
            return None
        out[t * ngens + g] = e
        into[h * ngens + g] = e
    # per label, the outgoing then the incoming neighbour: the probe order
    nbrs = [[] for _ in range(nv)]
    signature = []
    for v in range(nv):
        sig = []
        for s in range(v * ngens, (v + 1) * ngens):
            eo, ei = out[s], into[s]
            if eo >= 0:
                nbrs[v].append(head[eo])
            if ei >= 0:
                nbrs[v].append(tail[ei])
            sig.append(2 * (eo >= 0) + (ei >= 0))  # orders as (out, in) pairs
        signature.append(sig)
    least = min(signature)
    bases = [v for v in range(nv) if signature[v] == least]
    if len(bases) > 1 and ngens:
        head0 = [head[e] if e >= 0 else -1 for e in out[::ngens]]
    nf = len(c.ftype)
    best = None
    for base in bases:
        vix = [-1] * nv
        vix[base] = 0
        order = [base]
        if best is None:
            for v in order:
                for w in nbrs[v]:
                    if vix[w] < 0:
                        vix[w] = len(order)
                        order.append(w)
            if len(order) != nv:
                return None
        else:
            rows = iter(best[0][0])
            tied, worse = ngens > 0, False
            for k, v in enumerate(order):
                for w in nbrs[v]:
                    if vix[w] < 0:
                        vix[w] = len(order)
                        order.append(w)
                if tied and head0[v] >= 0:
                    row, held = (0, k, vix[head0[v]]), next(rows)
                    if row != held:
                        tied, worse = False, row > held
                        if worse:
                            break
            if worse:
                continue
        # edges in (label, tail) order, which sorts the (label, tail, head) rows
        eix = [0] * len(tail)
        erows = []
        for g in range(ngens):
            for k, v in enumerate(order):
                e = out[v * ngens + g]
                if e >= 0:
                    eix[e] = len(erows)
                    erows.append((g, k, vix[head[e]]))
        frows = [
            ((t, tuple([(eix[e], s) for e, s in sides])), x)
            for x, (t, sides) in enumerate(zip(c.ftype, c.boundary))
        ]
        frows.sort()
        key = (tuple(erows), tuple(row for row, _ in frows))
        if best is None or key < best[0]:
            fix = [0] * nf
            for k, (_, x) in enumerate(frows):
                fix[x] = k
            best = (key, vix, eix, fix)
    return best


def _rerank(signatures: dict[str, tuple]) -> dict[str, int]:
    order = sorted(set(signatures.values()))
    rank = {sig: k for k, sig in enumerate(order)}
    return {cell: rank[sig] for cell, sig in signatures.items()}


def _refine(f: Morphism, vcol, ecol, fcol):
    cx = f.complex
    label_rank = {g: k for k, g in enumerate(f.presentation.generators)}
    incid: dict[str, list] = {e.id: [] for e in cx.edges}
    ends: dict[str, list] = {v: [] for v in cx.vertices}
    for e in cx.edges:
        ends[e.tail].append((e.id, 0))
        ends[e.head].append((e.id, 1))
    for face in cx.faces:
        for p, (eid, sign) in enumerate(face.boundary):
            incid[eid].append((face.id, p, sign))
    while True:
        fsig = {
            face.id: (
                fcol[face.id],
                f.face_types[face.id],
                tuple((ecol[eid], sign) for eid, sign in face.boundary),
            )
            for face in cx.faces
        }
        esig = {
            e.id: (
                ecol[e.id],
                label_rank[f.edge_labels[e.id]],
                vcol[e.tail],
                vcol[e.head],
                tuple(sorted((fcol[fid], p, sign) for fid, p, sign in incid[e.id])),
            )
            for e in cx.edges
        }
        vsig = {
            v: (vcol[v], tuple(sorted((ecol[eid], side) for eid, side in ends[v])))
            for v in cx.vertices
        }
        nf, ne, nv = _rerank(fsig), _rerank(esig), _rerank(vsig)
        if nf == fcol and ne == ecol and nv == vcol:
            return nv, ne, nf
        vcol, ecol, fcol = nv, ne, nf


def _first_tied_class(col: dict[str, int]) -> list[str] | None:
    by_color: dict[int, list[str]] = {}
    for cell, c in col.items():
        by_color.setdefault(c, []).append(cell)
    for c in sorted(by_color):
        if len(by_color[c]) > 1:
            return sorted(by_color[c], key=id_key)
    return None


def _encode(f: Morphism, edge_rows, face_rows) -> bytes:
    doc = {
        "p": str(f.presentation),
        "nv": len(f.complex.vertices),
        "e": edge_rows,
        "f": face_rows,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def _serialize(f: Morphism, vcol, ecol, fcol) -> bytes:
    cx = f.complex
    vix = {v: vcol[v] for v in cx.vertices}
    eix = {e.id: ecol[e.id] for e in cx.edges}
    edges = sorted(
        (eix[e.id], f.edge_labels[e.id], vix[e.tail], vix[e.head]) for e in cx.edges
    )
    faces = sorted(
        (
            f.face_types[face.id],
            tuple((eix[eid], sign) for eid, sign in face.boundary),
        )
        for face in cx.faces
    )
    return _encode(f, [row[1:] for row in edges], faces)


def _search(f: Morphism, vcol, ecol, fcol):
    vcol, ecol, fcol = _refine(f, vcol, ecol, fcol)
    tied = _first_tied_class(vcol)
    which = "v"
    if tied is None:
        tied = _first_tied_class(ecol)
        which = "e"
    if tied is None:
        # Vertices and edges are discrete; color-tied faces are duplicates
        # (same type, same positional boundary), so any id-ordered indexing
        # of them yields the same serialization and a valid bijection.
        rows = sorted(
            (
                (
                    f.face_types[face.id],
                    tuple((ecol[eid], sign) for eid, sign in face.boundary),
                ),
                id_key(face.id),
                face.id,
            )
            for face in f.complex.faces
        )
        ffin = {fid: k for k, (_, _, fid) in enumerate(rows)}
        return _serialize(f, vcol, ecol, fcol), (vcol, ecol, ffin)
    best = None
    for cell in tied:
        if which == "v":
            nv = {u: (c, 0 if u == cell else 1) for u, c in vcol.items()}
            cand = _search(f, _rerank(nv), ecol, fcol)
        else:
            ne = {u: (c, 0 if u == cell else 1) for u, c in ecol.items()}
            cand = _search(f, vcol, _rerank(ne), fcol)
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _refined(f: Morphism) -> tuple[bytes, Labeling]:
    """Canonical form and labeling by refinement with backtracking; valid
    for every morphism, and the reference the breadth-first route is
    tested against."""
    cx = f.complex
    vcol = {v: 0 for v in cx.vertices}
    label_rank = {g: k for k, g in enumerate(f.presentation.generators)}
    ecol = _rerank({e.id: (label_rank[f.edge_labels[e.id]],) for e in cx.edges})
    fcol = _rerank({face.id: (f.face_types[face.id],) for face in cx.faces})
    return _search(f, vcol, ecol, fcol)


def _canonical(f: Morphism) -> tuple[bytes, Labeling]:
    found = _bfs(_compact(f))
    if found is None:
        return _refined(f)
    (erows, frows), vix, eix, fix = found
    cx = f.complex
    gens = f.presentation.generators
    form = _encode(f, [(gens[g], t, h) for g, t, h in erows], frows)
    return form, (
        {v: vix[k] for k, v in enumerate(cx.vertices)},
        {e.id: eix[k] for k, e in enumerate(cx.edges)},
        {x.id: fix[k] for k, x in enumerate(cx.faces)},
    )


def canonical_form(f: Morphism) -> bytes:
    """Byte encoding equal for two morphisms iff they are isomorphic."""
    return _canonical(f)[0]


def isomorphic(f: Morphism, g: Morphism) -> dict[str, dict[str, str]] | None:
    """Explicit cell bijection f -> g preserving all structure, or None."""
    if f.presentation != g.presentation:
        raise ComplexError("isomorphic: morphisms have different targets")
    fb, (fv, fe, ff) = _canonical(f)
    gb, (gv, ge, gf) = _canonical(g)
    if fb != gb:
        return None
    inv_v = {ix: v for v, ix in gv.items()}
    inv_e = {ix: e for e, ix in ge.items()}
    inv_f = {ix: x for x, ix in gf.items()}
    mapping = {
        "vertices": {v: inv_v[ix] for v, ix in fv.items()},
        "edges": {e: inv_e[ix] for e, ix in fe.items()},
        "faces": {x: inv_f[ix] for x, ix in ff.items()},
    }
    _check_bijection(f, g, mapping)
    return mapping


def _check_bijection(f: Morphism, g: Morphism, m: dict) -> None:
    gcx = g.complex
    for e in f.complex.edges:
        img = gcx.edge_by_id[m["edges"][e.id]]
        ends = (m["vertices"][e.tail], m["vertices"][e.head])
        if g.edge_labels[img.id] != f.edge_labels[e.id] or (img.tail, img.head) != ends:
            raise RuntimeError(f"isomorphic: edge {e.id} maps to a mismatched edge")
    for face in f.complex.faces:
        img = gcx.face_by_id[m["faces"][face.id]]
        sides = tuple((m["edges"][eid], sign) for eid, sign in face.boundary)
        if g.face_types[img.id] != f.face_types[face.id] or img.boundary != sides:
            raise RuntimeError(f"isomorphic: face {face.id} maps to a mismatched face")
