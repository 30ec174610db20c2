import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings, strategies as st

from foldcx.complexes import (
    Edge,
    Face,
    TwoComplex,
    collapse_free_face,
    euler_characteristic,
    free_faces,
    presentation_complex,
)
from foldcx.families import build_C, build_D, kp
from foldcx.homology import homology, smith_normal_form
from foldcx.presentations import parse_presentation
from foldcx.topology import collapsibility_search
from helpers import boundary_matrices, dense_homology, folded_prefold, four_vertex_classes


def rational_rank(matrix):
    """Independent rank oracle: Gaussian elimination over exact rationals."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_snf_known_matrix():
    # worked small example with nontrivial invariant factors
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_snf_identity_and_zero():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([]) == []


def test_snf_divisibility_chain_and_rank_oracle():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        factors = smith_normal_form(matrix)
        assert len(factors) == rational_rank(matrix)
        assert all(f > 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def determinant(matrix):
    """Independent determinant: Laplace expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * v * determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, v in enumerate(matrix[0])
        if v
    )


def test_snf_factors_match_determinantal_divisors():
    # independent oracle for the values: the k-th invariant factor is
    # d_k / d_(k-1), where d_k is the gcd of the k x k minors and d_0 = 1
    rng = random.Random(17)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        scale = rng.choice([1, 1, 2, 3, 6])
        matrix = [
            [scale * rng.randint(-4, 4) * (rng.random() < 0.6) for _ in range(cols)]
            for _ in range(rows)
        ]
        divisors = [1]
        for k in range(1, min(rows, cols) + 1):
            d = 0
            for r in combinations(range(rows), k):
                for c in combinations(range(cols), k):
                    d = gcd(d, determinant([[matrix[i][j] for j in c] for i in r]))
            if d == 0:
                break
            divisors.append(d)
        expected = [b // a for a, b in zip(divisors, divisors[1:])]
        assert smith_normal_form(matrix) == expected, matrix


def test_point_homology_of_target():
    assert homology(kp().complex).as_dict() == {
        "betti_0": 1,
        "betti_1": 0,
        "betti_2": 0,
        "torsion_1": [],
    }


def test_circle_homology():
    circle = presentation_complex(parse_presentation("a|")).complex
    h = homology(circle)
    assert (h.betti_0, h.betti_1, h.betti_2) == (1, 1, 0)


def test_torus_homology():
    torus = presentation_complex(parse_presentation("a,b|abAB")).complex
    h = homology(torus)
    assert (h.betti_0, h.betti_1, h.betti_2) == (1, 2, 1)
    assert h.torsion_1 == ()


def test_projective_plane_torsion():
    # one vertex, one loop, one face running over the loop twice
    rp2 = TwoComplex.make(
        ["v0"], [Edge("e0", "v0", "v0")], [Face("f0", (("e0", 1), ("e0", 1)))]
    )
    h = homology(rp2)
    assert (h.betti_0, h.betti_1, h.betti_2) == (1, 0, 0)
    assert h.torsion_1 == (2,)
    assert not h.is_point_like()


def test_two_components():
    two = TwoComplex.make(["v0", "v1"], [], [])
    assert homology(two).betti_0 == 2


def test_euler_identity_on_families():
    for m in (build_D(4), build_C(7), build_C(9, "tilde"), build_D(6, "tilde")):
        h = homology(m.complex)
        assert h.betti_0 - h.betti_1 + h.betti_2 == euler_characteristic(m.complex)
        assert h.is_point_like()


def test_homology_invariant_under_free_face_collapse():
    d = build_D(3).complex
    before = homology(d)
    edge = sorted(free_faces(d))[0]
    after = homology(collapse_free_face(d, edge))
    assert (before.betti_0, before.betti_1, before.betti_2) == (
        after.betti_0,
        after.betti_1,
        after.betti_2,
    )


def test_boundary_matrices_compose_to_zero():
    for m in (kp(), build_C(5), build_D(3)):
        d1, d2 = boundary_matrices(m.complex)
        if not d1 or not d2 or not d2[0]:
            continue
        for i in range(len(d1)):
            for j in range(len(d2[0])):
                total = sum(d1[i][k] * d2[k][j] for k in range(len(d2)))
                assert total == 0


def test_large_cycle_homology_is_point_like():
    cx = build_C(2001).complex
    started = time.perf_counter()
    h = homology(cx)
    elapsed = time.perf_counter() - started
    assert h.is_point_like()
    assert elapsed < 10.0, f"homology of C(2001) took {elapsed:.2f}s"


# -- property tests: the reduced route against the dense reference

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)



@st.composite
def one_vertex_complexes(draw) -> TwoComplex:
    """Loops at one vertex with faces along random words: d2 is then an
    arbitrary small integer matrix, so unit pivots with fill, a residual
    core, torsion and H2 all occur, which the folds and classes never reach."""
    loops = draw(st.integers(1, 4))
    letters = st.tuples(st.integers(0, loops - 1), st.sampled_from([1, -1]))
    words = draw(st.lists(st.lists(letters, min_size=1, max_size=6), max_size=5))
    return TwoComplex.make(
        ["v0"],
        [Edge(f"e{k}", "v0", "v0") for k in range(loops)],
        [Face(f"f{j}", tuple((f"e{k}", s) for k, s in w)) for j, w in enumerate(words)],
    )


complexes = st.one_of(
    one_vertex_complexes(),
    st.sampled_from(range(139)).map(lambda k: four_vertex_classes()[k].complex),
    st.sampled_from(range(400)).map(lambda seed: folded_prefold(seed).complex),
    st.sampled_from(
        [
            presentation_complex(parse_presentation("a|")).complex,
            presentation_complex(parse_presentation("a,b|abAB")).complex,
            TwoComplex.make(
                ["v0"], [Edge("e0", "v0", "v0")], [Face("f0", (("e0", 1), ("e0", 1)))]
            ),
            TwoComplex.make(["v0", "v1"], [], []),
            kp().complex,
        ]
    ),
)


@PROPERTY
@given(complexes)
def test_homology_matches_dense_reference(cx):
    assert homology(cx) == dense_homology(cx)


@PROPERTY
@given(complexes)
def test_collapsible_complexes_have_point_homology(cx):
    if cx.connected and collapsibility_search(cx) is not None:
        assert homology(cx).is_point_like()
