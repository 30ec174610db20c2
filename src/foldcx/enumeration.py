"""Exhaustive enumeration of immersions over K = <a,b | b, baBAA>.

Local injectivity pins down what an immersion's domain can be: at every
vertex there is at most one outgoing and one incoming edge per label, so
the 1-skeleton is exactly a pair of partial injections (one per label) on
the vertex set.  Given the skeleton, each face is a closed trace of its
relator (complexes.trace_relator) from the tail of some b-edge, since both
relators begin with a forward b; the trace from a given vertex is unique
when it exists, and distinct traces never share a side slot, so the legal
face sets are exactly the subsets of the closed traces.  Enumeration is
therefore one walk in three stages: an a-skeleton (one representative per
isomorphism class: a multiset of directed paths and cycles), a b-skeleton
(all partial injections), and a subset of candidate faces.  Each skeleton
pair is visited once, and each surviving face subset is filed under the
exact type set it uses, one class per canonical form.  Output order is the
sorted order of canonical forms, independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .canonical import canonical_form
from .complexes import ComplexError, Edge, Face, Morphism, TwoComplex, trace_relator
from .families import TYPE_LONG, TYPE_SHORT, target_presentation

MAX_NODES = 5_000_000  # default node budget of one enumeration pass


class BudgetExceeded(RuntimeError):
    """Raised when a search hits its node budget; results are never
    silently truncated."""

    def __init__(self, nodes: int, budget: int, message: str = ""):
        self.nodes = nodes
        self.budget = budget
        super().__init__(
            message or f"search budget exhausted ({nodes} nodes > {budget})"
        )


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


def _candidate_faces(sigma_a: dict[int, int], sigma_b: dict[int, int]):
    """Closed relator traces as (type, sides).

    Each relator is traced from every vertex that has an edge carrying its
    first letter, in vertex order; for the target, whose relators both begin
    with a forward b, those are the tails of the b-edges.
    """
    forward = {"a": sigma_a, "b": sigma_b}
    backward = {g: {v: u for u, v in table.items()} for g, table in forward.items()}
    candidates = []
    for rix, word in enumerate(target_presentation().relators):
        gen0, sign0 = word[0]
        for u in sorted((forward if sign0 > 0 else backward)[gen0]):
            tails = trace_relator(word, forward, backward, u)
            if tails is None:
                continue
            candidates.append(
                (rix, tuple((f"{g}{t}", s) for (g, s), t in zip(word, tails)))
            )
    return candidates


def _subsets_with_types(candidates, required: frozenset[int]):
    """Subsets whose set of used types is exactly `required`: a non-empty
    subset of each required type's candidates, in mask order per type."""
    pools = [[c for c in candidates if c[0] == t] for t in sorted(required)]
    masks = [range(1, 1 << len(pool)) for pool in pools]
    for choice in product(*masks):
        yield [
            cand
            for pool, mask in zip(pools, choice)
            for k, cand in enumerate(pool)
            if mask >> k & 1
        ]


def _connected(n: int, sigma_a: dict[int, int], sigma_b: dict[int, int]) -> bool:
    if n == 1:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for table in (sigma_a, sigma_b):
        for u, v in table.items():
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _build(n, sigma_a, sigma_b, chosen) -> Morphism:
    vertices = [f"v{k}" for k in range(n)]
    edges, labels = [], {}
    for u, v in sorted(sigma_a.items()):
        edges.append(Edge(f"a{u}", f"v{u}", f"v{v}"))
        labels[f"a{u}"] = "a"
    for u, v in sorted(sigma_b.items()):
        edges.append(Edge(f"b{u}", f"v{u}", f"v{v}"))
        labels[f"b{u}"] = "b"
    faces, types = [], {}
    for k, (ftype, sides) in enumerate(chosen):
        faces.append(Face(f"f{k}", tuple(sides)))
        types[f"f{k}"] = ftype
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
    skeleton pair or a face subset of any of the type sets; BudgetExceeded
    is raised when more than max_nodes are visited in all."""
    found = {frozenset(types): {} for types in type_sets}
    for types in found:  # the filter checks the arguments
        EnumerationFilter(max_vertices, required_types=types)
    nodes = 0
    for n in range(1, max_vertices + 1):
        b_skeletons = _partial_injections(n)
        for sigma_a in _a_skeletons(n):
            for sigma_b in b_skeletons:
                nodes += 1
                if nodes > max_nodes:
                    raise BudgetExceeded(nodes, max_nodes)
                if require_connected and not _connected(n, sigma_a, sigma_b):
                    continue
                candidates = _candidate_faces(sigma_a, sigma_b)
                for types, classes in found.items():
                    for chosen in _subsets_with_types(candidates, types):
                        nodes += 1
                        if nodes > max_nodes:
                            raise BudgetExceeded(nodes, max_nodes)
                        if require_no_free_faces:
                            used: dict[str, int] = {}
                            for _, sides in chosen:
                                for eid, _ in sides:
                                    used[eid] = used.get(eid, 0) + 1
                            if 1 in used.values():
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
