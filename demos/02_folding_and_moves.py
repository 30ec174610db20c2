"""Folding and the three moves.

fold() quotients any combinatorial map down to a locally injective one.
couple() glues a closed cell along one edge and folds; identify_edges()
and identify_vertices() quotient cells of an immersion and fold.  Every
fold reports a replayable trace: each absorbed cell with the output cell
it became, vertices, then edges, then faces.
"""

from foldcx import (
    build_D,
    classify,
    couple,
    fold,
    free_faces,
    identify_edges,
    identify_vertices,
    replay_trace,
)
from foldcx.complexes import Morphism, TwoComplex, Edge

# start from the smallest disc: one short cell on a b-loop
d0 = build_D(0)
print("D:0 free faces:", free_faces(d0.complex))

# gluing a long cell along the two b-occurrences gives the two mirror discs
print("glue long cell at position 2:", classify(couple(d0, 1, 2, "b0")))
print("glue long cell at position 0:", classify(couple(d0, 1, 0, "b0")))

# the families close up under identification of the last and first b-edges
for i in (1, 2, 3, 5):
    print(f"identify b{i} ~ b0 in D:{i}  ->", classify(identify_edges(build_D(i), f"b{i}", "b0")))

# pinching any two vertices of a closed-up complex folds it smaller
from foldcx import build_C
print("pinch v0 ~ v2 in C:5        ->", classify(identify_vertices(build_C(5), "v0", "v2")))

# a fold trace replays: build a non-immersion by doubling an edge
base = build_D(1)
cx = base.complex
doubled = Morphism(
    TwoComplex.make(
        list(cx.vertices) + ["w"],
        list(cx.edges) + [Edge("x", "v1", "w")],
        list(cx.faces),
    ),
    base.presentation,
    dict(base.edge_labels, x="a"),  # second outgoing a at v1
    dict(base.face_types),
)
folded, trace = fold(doubled)
print("fold absorbed", len(trace), "cells; replay agrees:",
      replay_trace(doubled, trace) == folded)
print(trace.to_json_lines().rstrip())
