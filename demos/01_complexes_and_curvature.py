"""A first look at the data model.

The target of every map in this library is the 2-complex of the
presentation <a,b | b, baBAA>: one vertex, two loops, a 1-gon attached
along b and a pentagon attached along b a b^-1 a^-1 a^-1.
"""

from foldcx import (
    average_curvature,
    euler_characteristic,
    export_dot,
    free_faces,
    is_immersion,
    kp,
    morphism_to_json,
    parse_presentation,
    presentation_complex,
)

k = kp()
print("cells:", len(k.complex.vertices), "vertex,",
      len(k.complex.edges), "edges,", len(k.complex.faces), "faces")
print("Euler characteristic:", euler_characteristic(k.complex))
print("average curvature:", average_curvature(k.complex))  # exactly 1/2
print("locally injective:", is_immersion(k))
print("free faces:", free_faces(k.complex) or "none")

# every face side is addressed by (relator, position); the long relator
# visits b at positions 0 and 2 and a at positions 1, 3, 4
for face in k.complex.faces:
    word = k.presentation.relators[k.face_types[face.id]]
    print(f"face {face.id} spells", "".join(g if s > 0 else g.upper() for g, s in word))

# complexes travel as JSON and the 1-skeleton exports to DOT
print()
print(morphism_to_json(k))
print(export_dot(k))

# any presentation without proper-power relators works as a target
torus = presentation_complex(parse_presentation("a,b|abAB"))
print("torus complex chi:", euler_characteristic(torus.complex))
