"""The contractibility dichotomy, verified two independent ways.

Route one enumerates every immersion class over the target outright: the
skeleton of an immersion is a pair of partial injections and its faces
are closed relator traces, so exhaustive search is feasible at desk
scale.  Route two starts from the smallest two-cell disc and closes it
under the moves (identify a free edge, or couple a cell onto it).  Both
routes must land on the same classes, and every class using both cell
types must be contractible with Euler characteristic one.
"""

from foldcx import (
    EnumerationFilter,
    build_D,
    canonical_form,
    classify,
    closure_search,
    enumerate_immersions,
    euler_characteristic,
    verify_main_theorem,
)

classes = enumerate_immersions(EnumerationFilter(max_vertices=5))
print("connected, no free faces, both cell types, at most 5 vertices:")
for m in classes:
    print("  ", classify(m), "chi =", euler_characteristic(m.complex))

closure = closure_search(build_D(1), max_faces=6)
print("closure of the moves from D:1 within 6 faces:",
      [str(classify(m)) for m, _ in closure.results])
print("search explored", closure.explored, "immersions to depth", closure.max_depth)
print("successors folded", closure.folds, "of which duplicates", closure.duplicates,
      "and over the face budget", closure.pruned)

agree = sorted(canonical_form(m) for m in classes) == sorted(
    canonical_form(m) for m, _ in closure.results
)
print("the two routes agree:", agree)

report = verify_main_theorem(max_vertices=4)
print()
print(report.to_text())
