"""Exhaustive enumeration of immersions over K = <a,b | b, baBAA>.

Local injectivity pins down what an immersion's domain can be: at every
vertex there is at most one outgoing and one incoming edge per label, so
the 1-skeleton is exactly a pair (sigma_a, sigma_b) of partial injections on
the vertex set.  Given the skeleton, each face is a closed trace of its
relator from some start vertex; the trace from a given vertex is unique
when it exists, and distinct traces never share a side slot, so the legal
face sets are exactly the subsets of the closed traces.  The walk does not
trace through a whole skeleton, as complexes.trace_relator does for the
families: it traces once per sigma_a with the b-steps free (_free_trace)
and reads each sigma_b's traces off that table.  For each vertex count
the walk settles the faces of a skeleton pair before anything else, in
four stages.

1. a-skeletons: one sigma_a per isomorphism class of the a-labeled
   subgraph (a multiset of directed paths and cycles), laid out with its
   components, the a-partition, as blocks of consecutive vertices.
2. The face table of sigma_a (_face_table): each relator word is traced
   from every start vertex with its a-steps read off sigma_a and each
   b-step free, so a start gives one trace per choice of b-edges that
   closes up and forms a partial injection.  The a-letters after the last
   b-letter are traced backwards from the start first: a-steps are
   injective, so only the vertex reached that way can close the trace as
   the last b-step's head, and only the earlier b-steps branch (n + n^2
   traces tried per a-skeleton rather than n^2 + n^3).  A trace keeps its
   relator and the integer index of each side's edge, in (relator, start)
   order; the b-edges it needs are its indices of at least n.  For a
   b-skeleton sigma_b every step of a trace is forced, so its closed
   traces are exactly the table's traces whose b-edges sigma_b all holds,
   in the same order.
3. The free-face 2-core (_two_core), when free faces are excluded: drop
   every trace with an edge that has fewer than two sides among the traces
   left, until none is dropped.  A valid face set S lies inside the core.
   S has no free face, so every edge that S uses has at least two sides
   within S.  If S lies inside the traces left before a round, each edge of
   S keeps at least two sides among them, so no face of S is dropped in
   that round; by induction none ever is.  The same argument holds for
   any subset in which every edge used has two sides, and the core is such
   a subset, so the core is the largest one; it therefore only grows with
   the set it starts from.  Side counts are read off two bit masks of
   edge indices per trace, once (the edges it has one side on) and more
   (two or more sides): _thin folds them as a bit-sliced counter, and its
   result is exactly the set of edges whose side count among the faces is
   1, the edges a round drops.  The traces of a pair are a subset of the
   table with every b-edge allowed, so cutting the table of sigma_a to its
   core once loses no trace of any pair's core, and an a-skeleton whose
   table core is empty has no valid face set with any sigma_b.
4. b-skeletons, as bits of integer masks over their positions.  Once per
   vertex count the holders of each b-edge become one mask (_holders).
   Connectivity is settled before any face is read: a pair is connected or
   not by the a-partition, which comes with the a-skeleton, and the b-edges
   alone, so once per a-partition (paths and cycles of equal sizes share
   one) the mask kept is the b-skeletons that hold a b-edge across every
   cut of its blocks (_joining); without the connectivity filter every
   b-skeleton is kept.  Each trace of the cored table is then held by the
   AND of the holders of its b-edges, and kept is split by these masks into
   groups with one face key each, the positions in the table of the traces
   held (_groups).  This leaves out exactly the disconnected pairs: such a
   pair yields no class whatever its faces, its faces feed nothing that
   another pair reads, and its node is charged whether or not it is looked
   at.  The faces of a group are the traces of its key, cut to their core
   once (_settle); a group whose core cannot fill every type of any
   requested type set is dropped whole, so a b-skeleton that holds no trace
   is never looked at when every requested type set needs a face.  Only the
   groups that settle are read out into positions, and their pairs are
   visited in increasing position.  That is the order in which the pairs
   would be visited one by one, less the pairs that try no subset, and a
   pair's subsets depend on its key alone, so the pairs and face subsets
   visited, their order, the node count and the classes found are those of
   reading every pair's faces in turn.  Face subsets run over the core
   pools only, each subset once per pair, in mask order per type with the
   short type outermost, and each is filed under the exact type set it
   uses.  Only subsets of a requested type set are generated: the short
   mask runs only when some requested set holds the short type, and each
   short mask enters only the long masks that complete a requested set.
   So within each type set the order is that of walking its subsets alone.
   A valid subset lies in the core, and the mask order on the core keeps
   the relative order that the valid subsets have in the mask order on all
   of the pair's traces, so the first representative of each class is the
   same as over all traces.

Each skeleton pair is a node, skipped or not, as is each face subset tried;
each subset without free faces (when required) is filed under the exact
type set it uses, one class per canonical form.  A subset kept is a
complexes.Compact: the pair's skeleton part is built once per pair
(_skeleton), and only the face types and boundaries change per subset.
It is keyed on that form (canonical_key) and its bytes come from the
encoder canonical_form uses (canonical._encode), so a Morphism is made
only for the first subset of a new class (complexes._morphism).  The
pairs of a vertex count are charged before any b-skeleton is built, so a
budget that they alone exceed is reported at once, with the count
reached.  Output order is the sorted order of canonical forms,
independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, permutations, product
from math import comb, factorial
from operator import or_
from typing import NamedTuple

from .canonical import _encode, canonical_key
from .complexes import ComplexError, Compact, Morphism, _morphism, id_key
from .families import TYPE_LONG, TYPE_SHORT, target_presentation

MAX_NODES = 5_000_000  # default node budget of one enumeration pass
_TYPES = (TYPE_SHORT, TYPE_LONG)  # relator indices of the target


class BudgetExceeded(RuntimeError):
    """Raised when a search hits its node budget; results are never
    silently truncated.  nodes is the count the search had reached, which
    may pass the budget by a whole vertex count's pairs: a lower bound on
    the budget needed."""

    def __init__(self, nodes: int, budget: int):
        self.nodes = nodes
        self.budget = budget
        super().__init__(f"search budget exhausted ({nodes} nodes > {budget})")


@dataclass(frozen=True)
class EnumerationFilter:
    """What to keep.  required_types is exact: a surviving immersion uses
    a relator type iff the type is listed (so {TYPE_LONG} means cells of
    the long relator only, and set() means no faces at all)."""

    max_vertices: int
    require_connected: bool = True
    require_no_free_faces: bool = True
    required_types: frozenset[int] = frozenset({TYPE_SHORT, TYPE_LONG})

    def __post_init__(self):
        if self.max_vertices < 1:
            raise ComplexError("max_vertices must be at least 1")
        if not set(self.required_types) <= {TYPE_SHORT, TYPE_LONG}:
            raise ComplexError("required_types may only mention the two relators")


def _typed_partitions(n: int):
    """Multisets of (size, kind) parts summing to n; kind "p" is a directed
    path of size vertices, kind "c" a directed cycle."""
    parts = [(s, k) for s in range(n, 0, -1) for k in ("c", "p")]

    def rec(remaining: int, start: int, acc: list):
        if remaining == 0:
            yield list(acc)
            return
        for ix in range(start, len(parts)):
            s, _ = parts[ix]
            if s <= remaining:
                acc.append(parts[ix])
                yield from rec(remaining - s, ix, acc)
                acc.pop()

    yield from rec(n, 0, [])


def _a_skeletons(n: int) -> list[tuple[dict[int, int], tuple[int, ...]]]:
    """One representative partial injection per isomorphism class of the
    a-labeled subgraph, with its components: each vertex labelled by the
    least vertex of its path or cycle."""
    out = []
    for partition in _typed_partitions(n):
        sigma: dict[int, int] = {}
        labels: list[int] = []
        for size, kind in partition:
            base = len(labels)
            labels += [base] * size
            for k in range(size if kind == "c" else size - 1):  # a cycle closes
                sigma[base + k] = base + (k + 1) % size
        out.append((sigma, tuple(labels)))
    return out


def _partial_injections(n: int) -> list[dict[int, int]]:
    out = []
    items = list(range(n))
    for dom_mask in range(1 << n):
        domain = [x for x in items if dom_mask >> x & 1]
        for codomain in permutations(items, len(domain)):
            out.append(dict(zip(domain, codomain)))
    return out


class _Trace(NamedTuple):
    """A closed trace of relator rix in a face table: the integer index of
    each side's edge (_b_edge), the signs being the relator's.  The b-edges
    it needs are its indices of at least n.  once and more are the bits of
    the edge indices it has exactly one side on and two or more sides on;
    they have no default, since a trace made without them would pass every
    side test, and _trace derives them."""

    rix: int
    edges: tuple[int, ...]
    once: int
    more: int


def _trace(rix: int, edges) -> _Trace:
    """The trace of relator rix along the edge indices edges, with its
    side masks."""
    seen = more = 0
    for e in edges:
        more |= seen & 1 << e
        seen |= 1 << e
    return _Trace(rix, tuple(edges), seen & ~more, more)


def _b_edge(n: int, tail: int, head: int) -> int:
    """Integer index of the b-edge tail -> head; a-edges are indexed by
    their tail, below n."""
    return n + tail * n + head


def _free_trace(word, start: int, choice, sigma_a, backward) -> list | None:
    """The edges (tail, head) that word reads from start, its a-letters
    following sigma_a (backward is its inverse) and its b-letters reaching
    the vertices in choice, one per b-letter; None when the trace runs into
    a missing a-edge, does not close up, or reads two b-edges out of or
    into one vertex."""
    picks = iter(choice)
    path = [start]
    for gen, sign in word:
        if gen == "b":
            path.append(next(picks))
        else:
            path.append((sigma_a if sign > 0 else backward).get(path[-1]))
            if path[-1] is None:
                return None
    if path[-1] != start:
        return None
    ends = [
        (u, v) if sign > 0 else (v, u) for (_, sign), u, v in zip(word, path, path[1:])
    ]
    b_edges = {end for (gen, _), end in zip(word, ends) if gen == "b"}
    if not len(b_edges) == len({t for t, _ in b_edges}) == len({h for _, h in b_edges}):
        return None
    return ends


def _face_table(n: int, sigma_a: dict[int, int]) -> list[_Trace]:
    """Every closed trace of each relator through sigma_a with its b-steps
    free, in (relator, start vertex) order: a b-letter may read any b-edge
    at the current vertex, so each start gives one trace per choice of
    b-edges that closes up and forms a partial injection.  The a-letters
    after the last b-letter are traced backwards from the start, which
    gives the one endpoint of the last b-step that can close the trace, so
    only the earlier b-steps branch, in the order of their choices."""
    backward = {v: u for u, v in sigma_a.items()}
    table = []
    for rix, word in enumerate(target_presentation().relators):
        last = max(k for k, (gen, _) in enumerate(word) if gen == "b")
        free = sum(gen == "b" for gen, _ in word[:last])
        for start in range(n):
            end: int | None = start  # where the last b-step must lead
            for _, sign in reversed(word[last + 1 :]):
                end = (backward if sign > 0 else sigma_a).get(end)
                if end is None:
                    break
            if end is None:
                continue
            for choice in product(range(n), repeat=free):
                ends = _free_trace(word, start, (*choice, end), sigma_a, backward)
                if ends is None:
                    continue
                edges = [
                    t if gen == "a" else _b_edge(n, t, h)
                    for (gen, _), (t, h) in zip(word, ends)
                ]
                table.append(_trace(rix, edges))
    return table


# the set bits of each byte value, in increasing order
_BITS = [tuple(k for k in range(8) if byte >> k & 1) for byte in range(256)]


def _positions(mask: int) -> list[int]:
    """The set bits of mask in increasing order, read from its non-zero
    bytes only."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + k for i in compress(range(len(data)), data) for k in _BITS[data[i]]]


def _holders(n: int, b_skeletons: list[dict[int, int]]) -> dict[int, int]:
    """Each b-edge's index, mapped to the mask of the positions of the
    b-skeletons that hold it: one byte per b-skeleton names the head of
    the b-edge at a tail (n when there is none), and each head's bytes
    become the binary digits of the mask in one step."""
    digits = [bytes(b"01"[x == v] for x in range(256)) for v in range(n)]
    holding = {}
    for u in range(n):
        heads = bytes(sigma_b.get(u, n) for sigma_b in b_skeletons)[::-1]
        for v in range(n):
            holding[_b_edge(n, u, v)] = int(heads.translate(digits[v]), 2)
    return holding


def _clashes(n: int, b_edges) -> int:
    """The b-edges that share a tail or a head with one of the given ones,
    but are none of them, as bits of their indices; no partial injection
    holds one of them beside the given ones."""
    bits = 0
    for e in b_edges:
        tail, head = divmod(e - n, n)
        for k in range(n):
            bits |= 1 << _b_edge(n, tail, k) | 1 << _b_edge(n, k, head)
    return bits & ~sum(1 << e for e in b_edges)


def _groups(
    n: int, table: list[_Trace], holding: dict[int, int], kept: int
) -> dict[tuple[int, ...], int]:
    """The b-skeletons in the mask kept, split by face key: the positions
    in the table of the closed relator traces of the skeleton (sigma_a,
    sigma_b), mapped to the mask of the b-skeletons that have exactly
    those.  With sigma_b fixed every step of a trace is forced, so a trace
    is closed iff sigma_b holds each b-edge it needs, its edge indices of
    at least n (holding maps each b-edge to its holders, and every relator
    of the target reads a b).
    Each group also keeps, as bits of b-edge indices, the b-edges that the
    traces of its key need and those that clash with them (_clashes):
    every member holds a trace that needs no other b-edge, and none holds
    a trace that needs a clashing one, so only the other traces are read
    off the masks."""
    groups = [((), kept, 0, 0)]
    for p, face in enumerate(table):
        b_edges = {e for e in face.edges if e >= n}
        held = kept
        for e in b_edges:
            held &= holding[e]
        if not held:
            continue
        needs = sum(1 << e for e in b_edges)
        clashes = _clashes(n, b_edges)
        split = []
        for key, mask, edges, barred in groups:
            if needs & barred:
                split.append((key, mask, edges, barred))
                continue
            inside = mask if needs & edges == needs else mask & held
            if inside:
                split.append((key + (p,), inside, edges | needs, barred | clashes))
                mask ^= inside
            if mask:
                split.append((key, mask, edges, barred))
        groups = split
    return {key: mask for key, mask, _, _ in groups}


def _thin(faces) -> int:
    """The bits of the edges with exactly one side among the faces, as a
    two-bit counter per edge: after each face, two holds the edges that the
    faces so far have at least two sides on, and one those that some face
    so far has exactly one side on."""
    one = two = 0
    for face in faces:
        two |= one & face.once | face.more
        one |= face.once
    return one & ~two


def _two_core(faces: list[_Trace]) -> list[_Trace]:
    """Drop every face with an edge that has fewer than two sides among the
    faces left (_thin), until none is dropped."""
    while thin := _thin(faces):
        faces = [face for face in faces if not thin & (face.once | face.more)]
    return faces


def _settle(key, table, found, require_no_free_faces) -> list[_Trace] | None:
    """The faces at positions key of the table, cut to their 2-core when
    free faces are excluded (on their side masks, _two_core), or None when
    they cannot fill every type of any type set in found."""
    faces = [table[p] for p in key]
    if require_no_free_faces:
        faces = _two_core(faces)
    held = {face.rix for face in faces}
    return faces if any(types <= held for types in found) else None


def _joining(a_part: tuple[int, ...], holding: dict[int, int], everything: int) -> int:
    """The mask of the b-skeletons, among those in everything, that join
    the partition a_part (each vertex labelled by the least vertex of its
    block) into one component: those that hold a b-edge across every cut
    of the blocks into two non-empty sides.  A cut is named by the blocks
    other than the first that lie on the first one's side."""
    n = len(a_part)
    others = sorted(set(a_part) - {0})
    kept = everything
    for bits in range((1 << len(others)) - 1):
        side = {0} | {block for k, block in enumerate(others) if bits >> k & 1}
        inside = [block in side for block in a_part]
        kept &= reduce(
            or_,
            (
                holding[_b_edge(n, u, v)]
                for u in range(n)
                for v in range(n)
                if inside[u] != inside[v]
            ),
        )
    return kept


def _count_partial_injections(n: int) -> int:
    """len(_partial_injections(n)): k-element domains and codomains, and a
    bijection between them."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def _skeleton(n, sigma_a, sigma_b) -> tuple[Compact, list[str], dict[int, int]]:
    """The skeleton pair as a complexes.Compact without faces, its edge
    ids, a{u} and b{u} for the edge out of vertex u, and the place of each
    edge's index (_b_edge) in the Compact's numbering.  That numbering is
    shortlex id order, as Compact requires, which puts the a-edges before
    the b-edges only below 11 vertices."""
    gens = target_presentation().generators
    edges = sorted(
        (id_key(f"{gen}{u}"), u if gen == "a" else _b_edge(n, u, v), u, v, gens.index(gen))
        for gen, sigma in (("a", sigma_a), ("b", sigma_b))
        for u, v in sigma.items()
    )
    keys, indices, tails, heads, labels = ([row[k] for row in edges] for k in range(5))
    place = {e: k for k, e in enumerate(indices)}
    return Compact(len(gens), n, tails, heads, labels, [], []), [eid for _, eid in keys], place


def enumerate_by_types(
    max_vertices: int,
    type_sets: list[frozenset[int]],
    require_connected: bool = True,
    require_no_free_faces: bool = True,
    max_nodes: int = MAX_NODES,
) -> dict[frozenset[int], list[Morphism]]:
    """The classes of enumerate_immersions for each exact type set in
    type_sets, from one walk over the skeletons: each type set maps to its
    immersions up to isomorphism, sorted by canonical form.  A node is a
    skeleton pair, skipped or not, or a face subset tried for any of the
    type sets; BudgetExceeded is raised with the count reached when more
    than max_nodes are visited in all, and before the pairs of a vertex
    count are built when they alone overflow.  A budget below one is
    rejected before any work.  With require_connected, the b-skeletons that
    make a connected pair with sigma_a are chosen by its a-partition before
    any face is read; a pair left out could only have been skipped, since
    connectivity does not depend on the faces, and it is charged all the
    same.  The kept b-skeletons are grouped by face key and each key is
    settled once; the pairs of the groups that settle are visited in
    increasing position, the order of visiting every pair in turn less the
    pairs that try no subset, and a pair's subsets depend on its key alone.
    Each pair walks its face subsets once, filing each under the exact type
    set it uses, keyed on its compact form; a Morphism is made only for a
    new class.  Only subsets of a type set in type_sets are generated, so
    each type set sees its subsets in mask order per type.
    So the classes, their first representatives and the node count are
    those of checking each pair after its faces."""
    if max_nodes < 1:
        raise ComplexError("max_nodes must be at least 1")
    pres = target_presentation()
    found = {frozenset(types): {} for types in type_sets}
    used = frozenset().union(*found)  # the types some requested set holds
    for types in found:  # the filter checks the arguments
        EnumerationFilter(max_vertices, required_types=types)
    nodes = 0

    def visit(count: int = 1):
        nonlocal nodes
        nodes += count
        if nodes > max_nodes:
            raise BudgetExceeded(nodes, max_nodes)

    for n in range(1, max_vertices + 1):
        a_skeletons = _a_skeletons(n)
        # every pair counts once, so an overflow shows before any is built
        visit(len(a_skeletons) * _count_partial_injections(n))
        b_skeletons = _partial_injections(n)
        vids = [f"v{k}" for k in range(n)]
        holding = _holders(n, b_skeletons)
        everything = (1 << len(b_skeletons)) - 1
        joining: dict[tuple[int, ...], int] = {}  # a-partition -> kept
        for sigma_a, a_part in a_skeletons:
            kept = everything
            if require_connected:
                if a_part not in joining:
                    joining[a_part] = _joining(a_part, holding, everything)
                kept = joining[a_part]
            table = _face_table(n, sigma_a)
            if require_no_free_faces:
                table = _two_core(table)
            # each face key once; a key that settles serves every b-skeleton
            # of its group, and the pairs are visited in position order
            visits: dict[int, list[list[_Trace]]] = {}
            for key, mask in _groups(n, table, holding, kept).items():
                faces = _settle(key, table, found, require_no_free_faces)
                if faces is None:
                    continue
                pools = [[face for face in faces if face.rix == t] for t in _TYPES]
                visits.update(dict.fromkeys(_positions(mask), pools))
            for j in sorted(visits):
                short, long_ = visits[j]
                skeleton, eids, place = _skeleton(n, sigma_a, b_skeletons[j])
                boundary = {
                    face: [(place[e], s) for e, (_, s) in zip(face.edges, pres.relators[face.rix])]
                    for face in short + long_
                }
                # one mask per type, the short type outermost; a short mask
                # enters only the long masks that complete a requested set
                for ms in range(1 << len(short) if TYPE_SHORT in used else 1):
                    head = frozenset([TYPE_SHORT] if ms else [])
                    tail = head | {TYPE_LONG}
                    low = 0 if head in found else 1
                    shorts = [f for k, f in enumerate(short) if ms >> k & 1]
                    for ml in range(low, 1 << len(long_) if tail in found else 1):
                        visit()
                        chosen = shorts + [f for k, f in enumerate(long_) if ml >> k & 1]
                        if require_no_free_faces and _thin(chosen):
                            continue
                        c = skeleton._replace(
                            ftype=[f.rix for f in chosen], boundary=[boundary[f] for f in chosen]
                        )
                        form = _encode(canonical_key(c)[0], pres, n)
                        classes = found[tail if ml else head]
                        if form not in classes:
                            fids = [f"f{k}" for k in range(len(chosen))]
                            classes[form] = _morphism(c, pres, (vids, eids, fids))
    return {t: [classes[k] for k in sorted(classes)] for t, classes in found.items()}


def enumerate_immersions(
    filt: EnumerationFilter, max_nodes: int = MAX_NODES
) -> list[Morphism]:
    """Every immersion over the standard target satisfying the filter, up
    to isomorphism, sorted by canonical form.  Raises BudgetExceeded when
    more than max_nodes search states are visited."""
    classes = enumerate_by_types(
        filt.max_vertices,
        [filt.required_types],
        filt.require_connected,
        filt.require_no_free_faces,
        max_nodes,
    )
    return classes[filt.required_types]
