"""Exhaustive enumeration of immersions over K = <a,b | b, baBAA>.

Local injectivity pins down what an immersion's domain can be: at every
vertex there is at most one outgoing and one incoming edge per label, so
the 1-skeleton is exactly a pair of partial injections (one per label) on
the vertex set.  Given the skeleton, each face is a closed trace of its
relator (complexes.trace_relator) from the tail of some b-edge, since both
relators begin with a forward b; the trace from a given vertex is unique
when it exists, and distinct traces never share a side slot, so the legal
face sets are exactly the subsets of the closed traces.  Enumeration is
therefore a DFS in three stages: an a-skeleton (one representative per
isomorphism class: a multiset of directed paths and cycles), a b-skeleton
(all partial injections), and a subset of candidate faces; survivors of
the filters are deduplicated by canonical form.  Output order is the
sorted order of canonical forms, independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .canonical import canonical_form
from .complexes import ComplexError, Edge, Face, Morphism, TwoComplex, trace_relator
from .families import TYPE_LONG, TYPE_SHORT, target_presentation


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
    """Closed relator traces as (type, sides, edge usage counts).

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
            sides = tuple((f"{g}{t}", s) for (g, s), t in zip(word, tails))
            usage: dict[str, int] = {}
            for eid, _ in sides:
                usage[eid] = usage.get(eid, 0) + 1
            candidates.append((rix, sides, usage))
    return candidates


def _subsets_with_types(candidates, required: frozenset[int]):
    """Subsets whose set of used types is exactly `required`."""
    by_type: dict[int, list] = {}
    for cand in candidates:
        by_type.setdefault(cand[0], []).append(cand)
    if any(t not in by_type for t in required):
        return
    pools = [by_type[t] for t in sorted(required)]

    def rec(ix: int, acc: list):
        if ix == len(pools):
            yield list(acc)
            return
        pool = pools[ix]
        for mask in range(1, 1 << len(pool)):
            chosen = [pool[k] for k in range(len(pool)) if mask >> k & 1]
            yield from rec(ix + 1, acc + chosen)

    yield from rec(0, [])


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
    for k, (ftype, sides, _) in enumerate(chosen):
        faces.append(Face(f"f{k}", tuple(sides)))
        types[f"f{k}"] = ftype
    return Morphism(
        TwoComplex.make(vertices, edges, faces),
        target_presentation(),
        labels,
        types,
    )


def enumerate_immersions(
    filt: EnumerationFilter, max_nodes: int = 5_000_000
) -> list[Morphism]:
    """Every immersion over the standard target satisfying the filter, up
    to isomorphism, sorted by canonical form.  Raises BudgetExceeded when
    more than max_nodes search states are visited."""
    nodes = 0
    found: dict[bytes, Morphism] = {}
    for n in range(1, filt.max_vertices + 1):
        b_skeletons = _partial_injections(n)
        for sigma_a in _a_skeletons(n):
            for sigma_b in b_skeletons:
                nodes += 1
                if nodes > max_nodes:
                    raise BudgetExceeded(nodes, max_nodes)
                if filt.require_connected and not _connected(n, sigma_a, sigma_b):
                    continue
                candidates = _candidate_faces(sigma_a, sigma_b)
                for chosen in _subsets_with_types(candidates, filt.required_types):
                    nodes += 1
                    if nodes > max_nodes:
                        raise BudgetExceeded(nodes, max_nodes)
                    if filt.require_no_free_faces:
                        total: dict[str, int] = {}
                        for _, _, usage in chosen:
                            for eid, m in usage.items():
                                total[eid] = total.get(eid, 0) + m
                        if 1 in total.values():
                            continue
                    morphism = _build(n, sigma_a, sigma_b, chosen)
                    form = canonical_form(morphism)
                    if form not in found:
                        found[form] = morphism
    return [found[k] for k in sorted(found)]
