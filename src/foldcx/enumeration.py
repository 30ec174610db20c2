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
   subgraph (a multiset of directed paths and cycles).
2. The face table of sigma_a (_face_table): each relator word is traced
   from every start vertex with its a-steps read off sigma_a and each
   b-step free, so a start gives one trace per choice of b-edges that
   closes up and forms a partial injection.  A trace keeps its sides, the
   integer index of each side's edge and the b-edges it needs, in
   (relator, start) order.  For a b-skeleton sigma_b every step of a trace
   is forced, so its closed traces are exactly the table's traces whose
   b-edges sigma_b all holds, in the same order (_faces_by_b_skeleton reads
   them off for every sigma_b at once, by intersecting, for each trace, the
   sets of b-skeletons that hold each edge it needs).
3. The free-face 2-core (_two_core), when free faces are excluded: drop
   every trace with an edge that has fewer than two sides among the traces
   left, until none is dropped.  A valid face set S lies inside the core.
   S has no free face, so every edge that S uses has at least two sides
   within S.  If S lies inside the traces left before a round, each edge of
   S keeps at least two sides among them, so no face of S is dropped in
   that round; by induction none ever is.  The same argument holds for
   any subset in which every edge used has two sides, and the core is such
   a subset, so the core is the largest one; it therefore only grows with
   the set it starts from.  The traces of a pair are a subset of the table
   with every b-edge allowed, so cutting the table of sigma_a to its core
   once loses no trace of any pair's core, and an a-skeleton whose table
   core is empty has no valid face set with any sigma_b.
4. b-skeletons: connectivity is settled before any face is read.  A pair
   is connected or not by the component partitions of sigma_a and sigma_b
   alone, so the b-skeletons are grouped by partition once per vertex
   count, and once per partition of sigma_a (paths and cycles of equal
   sizes share one) the groups that join it into one component are united
   into the set of b-skeletons kept (_joining); without the connectivity
   filter every b-skeleton is kept.  Faces are read off for the kept ones
   only (_faces_by_b_skeleton intersects each trace's holders with them).
   This leaves out exactly the disconnected pairs: such a pair yields no
   class whatever its faces, its faces feed nothing that another pair
   reads but a cache keyed by the face set alone, and its node is charged
   whether or not it is looked at.  So the pairs and face subsets visited,
   their order and the classes found do not change.  The faces of a kept
   pair are the table traces it holds, cut to their core (once per
   a-skeleton and set of traces held).  A pair whose faces cannot fill
   every type of any requested type set is skipped; when every requested
   type set needs a face, a sigma_b that holds no trace is skipped without
   being looked at.  Face subsets run over the core pools only, in mask
   order per type.  A valid subset lies in the core, and the mask order on
   the core keeps the relative order that the valid subsets have in the
   mask order on all of the pair's traces, so the first representative of
   each class is the same as over all traces.

Each skeleton pair is a node, skipped or not, as is each face subset tried;
each subset without free faces (when required) is filed under the exact
type set it uses, one class per canonical form.  The pairs of a vertex
count are charged before any b-skeleton is built, so a budget that they
alone exceed is reported at once.  Output order is the sorted order of
canonical forms, independent of scheduling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, permutations, product
from math import comb, factorial
from typing import NamedTuple

from .canonical import canonical_form
from .complexes import ComplexError, Edge, Face, Morphism, TwoComplex
from .families import TYPE_LONG, TYPE_SHORT, target_presentation

MAX_NODES = 5_000_000  # default node budget of one enumeration pass
_TYPES = (TYPE_SHORT, TYPE_LONG)  # relator indices of the target


class BudgetExceeded(RuntimeError):
    """Raised when a search hits its node budget; results are never
    silently truncated."""

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


def _a_skeletons(n: int) -> list[dict[int, int]]:
    """One representative partial injection per isomorphism class of the
    a-labeled subgraph."""
    out = []
    for partition in _typed_partitions(n):
        sigma: dict[int, int] = {}
        base = 0
        for size, kind in partition:
            for k in range(size - 1):
                sigma[base + k] = base + k + 1
            if kind == "c":
                sigma[base + size - 1] = base
            base += size
        out.append(sigma)
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
    """A closed trace of relator rix in a face table: its sides as
    (edge id, sign), the integer index of each side's edge (_b_edge) and
    the b-edges it needs."""

    rix: int
    sides: tuple[tuple[str, int], ...]
    edges: tuple[int, ...]
    needs: frozenset[int]


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
    b-edges that closes up and forms a partial injection."""
    backward = {v: u for u, v in sigma_a.items()}
    table = []
    for rix, word in enumerate(target_presentation().relators):
        free = sum(gen == "b" for gen, _ in word)
        for start in range(n):
            for choice in product(range(n), repeat=free):
                ends = _free_trace(word, start, choice, sigma_a, backward)
                if ends is None:
                    continue
                letters = [(gen, sign, t, h) for (gen, sign), (t, h) in zip(word, ends)]
                table.append(
                    _Trace(
                        rix,
                        tuple((f"{gen}{t}", sign) for gen, sign, t, _ in letters),
                        tuple(
                            t if gen == "a" else _b_edge(n, t, h)
                            for gen, _, t, h in letters
                        ),
                        frozenset(
                            _b_edge(n, t, h) for gen, _, t, h in letters if gen == "b"
                        ),
                    )
                )
    return table


def _holders(n: int, b_skeletons: list[dict[int, int]]) -> dict[int, set[int]]:
    """Each b-edge's index, mapped to the positions of the b-skeletons that
    hold it."""
    holding: dict[int, set[int]] = {}
    for j, sigma_b in enumerate(b_skeletons):
        for u, v in sigma_b.items():
            holding.setdefault(_b_edge(n, u, v), set()).add(j)
    return holding


def _faces_by_b_skeleton(
    table: list[_Trace], holding: dict[int, set[int]], kept: set[int]
) -> dict[int, tuple[int, ...]]:
    """The closed relator traces of each skeleton (sigma_a, sigma_b), read
    off the face table of sigma_a as positions in it, for each b-skeleton in
    kept that has any; holding maps each b-edge to the b-skeletons that hold
    it.  With sigma_b fixed every step of a trace is forced, so a trace is
    closed iff sigma_b holds each b-edge it needs (every relator of the
    target reads a b, so each trace needs one)."""
    present: dict[int, list[int]] = {}
    for p, face in enumerate(table):
        for j in set.intersection(*(holding[e] for e in face.needs), kept):
            present.setdefault(j, []).append(p)
    return {j: tuple(ps) for j, ps in present.items()}


def _two_core(faces: list[_Trace]) -> list[_Trace]:
    """Drop every face with an edge that has fewer than two sides among the
    faces left, until none is dropped."""
    while True:
        sides = Counter(chain.from_iterable(face.edges for face in faces))
        thin = {e for e, count in sides.items() if count < 2}
        if not thin:
            return faces
        faces = [face for face in faces if thin.isdisjoint(face.edges)]


def _settle(key, table, found, require_no_free_faces) -> list[_Trace] | None:
    """The faces at positions key of the table, cut to their 2-core when
    free faces are excluded, or None when they cannot fill every type of
    any type set in found."""
    faces = [table[p] for p in key]
    if require_no_free_faces:
        faces = _two_core(faces)
    held = {face.rix for face in faces}
    return faces if any(types <= held for types in found) else None


def _subsets_with_types(pools: dict[int, list[_Trace]], required: frozenset[int]):
    """Subsets whose set of used types is exactly `required`: a non-empty
    subset of each required type's pool, in mask order per type."""
    chosen_pools = [pools[t] for t in sorted(required)]
    masks = [range(1, 1 << len(pool)) for pool in chosen_pools]
    for choice in product(*masks):
        yield [
            face
            for pool, mask in zip(chosen_pools, choice)
            for k, face in enumerate(pool)
            if mask >> k & 1
        ]


def _merged(parts: tuple[int, ...], sigma: dict[int, int]) -> tuple[int, ...]:
    """The partition parts of the vertices, each vertex labelled by the least
    vertex of its block, with the two blocks at the ends of each edge
    u - sigma[u] merged: the components of a graph, when parts are the
    components of the rest of it."""
    root = list(parts)  # a forest in which every vertex points lower
    for u, v in sigma.items():
        while root[u] != u:
            u = root[u]
        while root[v] != v:
            v = root[v]
        if u < v:
            root[v] = u
        elif v < u:
            root[u] = v
    least: list[int] = []
    for x, r in enumerate(root):
        least.append(x if r == x else least[r])
    return tuple(least)


def _by_partition(
    n: int, b_skeletons: list[dict[int, int]]
) -> dict[tuple[int, ...], set[int]]:
    """The positions of the b-skeletons, grouped by component partition."""
    singletons = tuple(range(n))
    groups: dict[tuple[int, ...], set[int]] = {}
    for j, sigma_b in enumerate(b_skeletons):
        groups.setdefault(_merged(singletons, sigma_b), set()).add(j)
    return groups


def _joining(
    a_part: tuple[int, ...], groups: dict[tuple[int, ...], set[int]]
) -> set[int]:
    """The positions of the b-skeletons whose partition joins the partition
    a_part into one component: a pair is connected or not by the component
    partitions of its two parts alone, and a partition is generated by the
    edges from each vertex to the least vertex of its block."""
    return set().union(
        *(
            js
            for b_part, js in groups.items()
            if not any(_merged(a_part, dict(enumerate(b_part))))
        )
    )


def _count_partial_injections(n: int) -> int:
    """len(_partial_injections(n)): k-element domains and codomains, and a
    bijection between them."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def _build(n, sigma_a, sigma_b, chosen: list[_Trace]) -> Morphism:
    vertices = [f"v{k}" for k in range(n)]
    edges, labels = [], {}
    for u, v in sorted(sigma_a.items()):
        edges.append(Edge(f"a{u}", f"v{u}", f"v{v}"))
        labels[f"a{u}"] = "a"
    for u, v in sorted(sigma_b.items()):
        edges.append(Edge(f"b{u}", f"v{u}", f"v{v}"))
        labels[f"b{u}"] = "b"
    faces, types = [], {}
    for k, face in enumerate(chosen):
        faces.append(Face(f"f{k}", face.sides))
        types[f"f{k}"] = face.rix
    return Morphism(
        TwoComplex.make(vertices, edges, faces),
        target_presentation(),
        labels,
        types,
    )


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
    type sets; BudgetExceeded is raised when more than max_nodes are visited
    in all, and before the pairs of a vertex count are built when they alone
    overflow.  A budget below one is rejected before any work.  With
    require_connected, the b-skeletons that make a connected pair with
    sigma_a are chosen by component partition before any face is read; a
    pair left out could only have been skipped, since connectivity does
    not depend on the faces, and it is charged all the same, so the classes
    and the node count are those of checking each pair after its faces."""
    if max_nodes < 1:
        raise ComplexError("max_nodes must be at least 1")
    found = {frozenset(types): {} for types in type_sets}
    for types in found:  # the filter checks the arguments
        EnumerationFilter(max_vertices, required_types=types)
    need_faces = all(found)
    nodes = 0

    def visit(count: int = 1):
        nonlocal nodes
        nodes += count
        if nodes > max_nodes:
            raise BudgetExceeded(max_nodes + 1, max_nodes)

    for n in range(1, max_vertices + 1):
        a_skeletons = _a_skeletons(n)
        # every pair counts once, so an overflow shows before any is built
        visit(len(a_skeletons) * _count_partial_injections(n))
        b_skeletons = _partial_injections(n)
        holding = _holders(n, b_skeletons)
        everything = set(range(len(b_skeletons)))
        groups = _by_partition(n, b_skeletons) if require_connected else {}
        joining: dict[tuple[int, ...], set[int]] = {}  # a-partition -> kept
        for sigma_a in a_skeletons:
            kept = everything
            if require_connected:
                a_part = _merged(tuple(range(n)), sigma_a)
                if a_part not in joining:
                    joining[a_part] = _joining(a_part, groups)
                kept = joining[a_part]
            table = _face_table(n, sigma_a)
            if require_no_free_faces:
                table = _two_core(table)
            present = _faces_by_b_skeleton(table, holding, kept)
            # a b-skeleton without faces can only serve a type set of no faces
            visits = sorted(present) if need_faces else sorted(kept)
            settled: dict[tuple[int, ...], list[_Trace] | None] = {}
            for j in visits:
                key = present.get(j, ())
                if key not in settled:
                    settled[key] = _settle(key, table, found, require_no_free_faces)
                faces, sigma_b = settled[key], b_skeletons[j]
                if faces is None:
                    continue
                pools = {t: [face for face in faces if face.rix == t] for t in _TYPES}
                for types, classes in found.items():
                    for chosen in _subsets_with_types(pools, types):
                        visit()
                        if require_no_free_faces:
                            sides = Counter(chain.from_iterable(f.edges for f in chosen))
                            if 1 in sides.values():
                                continue
                        morphism = _build(n, sigma_a, sigma_b, chosen)
                        classes.setdefault(canonical_form(morphism), morphism)
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
