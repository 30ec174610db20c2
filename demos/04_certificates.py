"""Deciding contractibility with machine-checkable evidence.

Three engines cooperate: integer homology by sparse unit-pivot reduction
and Smith normal form, a greedy free-face collapse that finds a full
collapse sequence whenever one exists, and Todd-Coxeter coset enumeration
of the fundamental group read off a spanning tree and shrunk by Tietze
moves.
"""

from foldcx import (
    build_C,
    build_D,
    certify_contractible,
    collapsibility_search,
    coset_enumeration,
    homology,
    kp,
    parse_presentation,
    pi1_presentation,
    presentation_complex,
    replay_collapse,
)
from foldcx.groups import tietze_reduce

print("homology of the target:", homology(kp().complex))
torus = presentation_complex(parse_presentation("a,b|abAB")).complex
print("homology of the torus: ", homology(torus))

# the discs collapse cell by cell down to a point
steps = collapsibility_search(build_D(2).complex)
print("D:2 collapse sequence:", steps)
final = replay_collapse(build_D(2).complex, steps)
print("replayed down to:", final.vertices)

# the closed complexes have no free faces, so the group-theoretic route
# takes over: the coset table of the fundamental group closes at size 1
c5 = build_C(5).complex
pres = pi1_presentation(c5)
print("pi1(C:5) on", len(pres.generators), "generators has order",
      coset_enumeration(pres))
print("Tietze moves leave", len(tietze_reduce(pres).generators), "generators")

for cx, name in ((kp().complex, "target"), (c5, "C:5"), (build_D(3).complex, "D:3"),
                 (torus, "torus")):
    cert = certify_contractible(cx)
    print(f"certificate for {name}: {cert.kind}")
