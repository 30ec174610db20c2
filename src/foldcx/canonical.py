"""Canonical forms and explicit isomorphisms of labeled 2-complexes.

Two morphisms into the same presentation complex are isomorphic when a
bijection of cells preserves edge labels, edge orientations and face
types, and commutes with the boundary attachments (position by position;
boundaries have no rotational freedom because they are pinned to relator
position 0).

canonical_key is the one place a complex is keyed.  It reads the integer
form complexes.Compact and returns (key, vix, eix, fix): the key, and
the canonical number of each vertex, edge and face.  Both of its routes
give a key of one shape: the edge rows (label, tail, head) in canonical
edge order, then the sorted face rows (type, ((edge, sign), ...)).

_bfs numbers the cells breadth first from each base vertex of least local
signature, which is forced when the skeleton is folded, connected and
non-empty, and drops a base at its first label-0 edge row above the best
base's.  Every other input goes through _refined: iterative partition
refinement on the colored incidence structure, with backtracking on tied
classes: individualize one member of the first non-singleton class
(vertices first, then edges), re-refine, and keep the least key over all
leaves.  Faces never need individualization: once vertices and edges are
discrete, color-tied faces are literal duplicates and give equal rows.

The split is sound because being folded, connected and non-empty is
invariant under isomorphism, and keys of the two routes compare with
each other: a key lists every edge with its label and endpoints and
every face with its type and boundary over edge numbers, so together
with the vertex count it rebuilds a complex isomorphic to the input,
whichever route made it.  The vertex count is implied whenever there is
an edge: it is one more than the largest vertex number in the edge rows,
since then every vertex ends an edge (_bfs), or the isolated vertices
keep the least color through refinement and so take the least numbers
(_refined).  canonical_form encodes the key with the presentation and
the vertex count (_encode, which the enumeration applies to the keys of
its compact candidates too); isomorphic compares those encodings and maps
cells through the numberings.
"""

from __future__ import annotations

import json
from collections import Counter

from .complexes import ComplexError, Compact, Morphism, _compact, _ids


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
        found = _keyed(c, erows, vix, eix)
        if best is None or found[0] < best[0]:
            best = found
    return best


def _keyed(c: Compact, erows: list[tuple], vix: list[int], eix: list[int]):
    """(key, vix, eix, fix) for the edge rows of a numbering: the face rows
    over eix are sorted, and fix gives each face's place among them, ties
    by face index."""
    frows = sorted(
        ((t, tuple([(eix[e], s) for e, s in sides])), x)
        for x, (t, sides) in enumerate(zip(c.ftype, c.boundary))
    )
    fix = [0] * len(frows)
    for k, (_, x) in enumerate(frows):
        fix[x] = k
    return (tuple(erows), tuple(row for row, _ in frows)), vix, eix, fix


def _rerank(signatures: list) -> list[int]:
    rank = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
    return [rank[sig] for sig in signatures]


def _first_tied_class(col: list[int]) -> list[int]:
    """The cells of the least color held by more than one, in index order;
    empty when the coloring is discrete."""
    shared = [k for k, n in Counter(col).items() if n > 1]
    if not shared:
        return []
    least = min(shared)
    return [cell for cell, k in enumerate(col) if k == least]


def _refined(c: Compact):
    """Canonical (key, vix, eix, fix) by refinement with backtracking; valid
    for every complex, and the reference the breadth-first route is tested
    against.  The search tree is walked depth first on an explicit stack,
    tied members in index order, and the first leaf of least key wins."""
    nv, tail, head, label, ftype = c.nv, c.tail, c.head, c.label, c.ftype
    ne = len(tail)
    ends = [[] for _ in range(nv)]
    for e, (t, h) in enumerate(zip(tail, head)):
        ends[t].append((e, 0))
        ends[h].append((e, 1))
    incid = [[] for _ in range(ne)]
    for x, sides in enumerate(c.boundary):
        for p, (e, sign) in enumerate(sides):
            incid[e].append((x, p, sign))

    def refine(vcol, ecol, fcol):
        while True:
            fnext = _rerank([
                (fcol[x], t, tuple([(ecol[e], s) for e, s in sides]))
                for x, (t, sides) in enumerate(zip(ftype, c.boundary))
            ])
            enext = _rerank([
                (
                    ecol[e],
                    label[e],
                    vcol[tail[e]],
                    vcol[head[e]],
                    tuple(sorted([(fcol[x], p, s) for x, p, s in incid[e]])),
                )
                for e in range(ne)
            ])
            vnext = _rerank([
                (vcol[v], tuple(sorted([(ecol[e], side) for e, side in ends[v]])))
                for v in range(nv)
            ])
            if vnext == vcol and enext == ecol and fnext == fcol:
                return vcol, ecol, fcol
            vcol, ecol, fcol = vnext, enext, fnext

    best = None
    stack = [([0] * nv, _rerank(label), _rerank(ftype))]
    while stack:
        cols = refine(*stack.pop())
        # individualize each member of the first tied class, vertices
        # before edges; pushed in reverse, so the first is searched first
        for sort in (0, 1):
            col = cols[sort]
            tied = _first_tied_class(col)
            if tied:
                for cell in reversed(tied):
                    split = list(cols)
                    split[sort] = _rerank([(k, u != cell) for u, k in enumerate(col)])
                    stack.append(split)
                break
        else:
            # vertices and edges are discrete; color-tied faces are duplicates
            # (same type, same boundary), so either order gives the same rows
            vcol, ecol, _ = cols
            erows = [None] * ne
            for e, k in enumerate(ecol):
                erows[k] = (label[e], vcol[tail[e]], vcol[head[e]])
            found = _keyed(c, erows, vcol, ecol)
            if best is None or found[0] < best[0]:
                best = found
    return best


def canonical_key(c: Compact):
    """The canonical (key, vix, eix, fix) of a compact complex: breadth
    first when the skeleton is folded, connected and non-empty, by
    refinement otherwise; see the module docstring."""
    return _bfs(c) or _refined(c)


def _encode(key, presentation, nv: int) -> bytes:
    """The canonical form of a complex with nv vertices over presentation
    whose canonical key is key."""
    erows, frows = key
    gens = presentation.generators
    doc = {
        "p": str(presentation),
        "nv": nv,
        "e": [(gens[g], t, h) for g, t, h in erows],
        "f": frows,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def _canonical(f: Morphism) -> tuple[bytes, tuple[list[int], list[int], list[int]]]:
    """The canonical form of f and the canonical number of each vertex,
    edge and face of f, in the complex's cell order."""
    key, vix, eix, fix = canonical_key(_compact(f))
    return _encode(key, f.presentation, len(vix)), (vix, eix, fix)


def canonical_form(f: Morphism) -> bytes:
    """Byte encoding equal for two morphisms iff they are isomorphic."""
    return _canonical(f)[0]


def isomorphic(f: Morphism, g: Morphism) -> dict[str, dict[str, str]] | None:
    """Explicit cell bijection f -> g preserving all structure, or None."""
    if f.presentation != g.presentation:
        raise ComplexError("isomorphic: morphisms have different targets")
    fb, fnums = _canonical(f)
    gb, gnums = _canonical(g)
    if fb != gb:
        return None
    mapping = {}
    for sort, fids, gids, fnum, gnum in zip(
        ("vertices", "edges", "faces"), _ids(f), _ids(g), fnums, gnums
    ):
        numbered = [""] * len(gids)
        for cell, k in zip(gids, gnum):
            numbered[k] = cell
        mapping[sort] = {cell: numbered[k] for cell, k in zip(fids, fnum)}
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
