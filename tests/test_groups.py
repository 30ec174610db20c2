import time

import pytest
from hypothesis import given, settings, strategies as st

from foldcx.complexes import ComplexError, TwoComplex, Edge
from foldcx.families import build_C, build_D, kp, target_presentation
from foldcx.groups import coset_enumeration, pi1_presentation, tietze_reduce
from foldcx.presentations import (
    Presentation,
    cyclic_reduce,
    free_reduce,
    parse_presentation,
    parse_word,
)


def word(text, gens=("a", "b")):
    return parse_word(text, gens)


def test_trivial_group():
    assert coset_enumeration(target_presentation()) == 1
    assert tietze_reduce(target_presentation()) == Presentation((), ())


def test_cyclic_groups():
    for n in (2, 3, 5, 7):
        cyclic = Presentation(("a",), ((("a", 1),) * n,))
        assert coset_enumeration(cyclic) == n
        assert coset_enumeration(tietze_reduce(cyclic)) == n


def test_symmetric_group_s3():
    s3 = Presentation(("a", "b"), (word("aa"), word("bb"), word("ababab")))
    assert coset_enumeration(s3) == 6
    assert coset_enumeration(tietze_reduce(s3)) == 6


def test_quaternion_group():
    # <a,b | a^4, a^2 b^-2, b^-1 a b a>: order 8
    q8 = Presentation(
        ("a", "b"),
        (word("aaaa"), word("aaBB"), word("Baba")),
    )
    assert coset_enumeration(q8) == 8
    assert coset_enumeration(tietze_reduce(q8)) == 8


def test_dihedral_groups():
    for n in (3, 4, 6):
        dn = Presentation(
            ("a", "b"),
            ((("a", 1),) * n, (("b", 1),) * 2, ((("a", 1), ("b", 1)) * 2)),
        )
        assert coset_enumeration(dn) == 2 * n
        assert coset_enumeration(tietze_reduce(dn)) == 2 * n


def test_free_abelian_overflows():
    z2 = parse_presentation("a,b|abAB")
    assert coset_enumeration(z2, 1000) is None
    assert coset_enumeration(tietze_reduce(z2), 1000) is None


def test_free_group_overflows():
    free = parse_presentation("a|")
    assert coset_enumeration(free, 50) is None
    assert coset_enumeration(tietze_reduce(free), 50) is None


def test_trivial_presentation_no_generators():
    assert coset_enumeration(Presentation((), ())) == 1
    assert tietze_reduce(Presentation((), ())) == Presentation((), ())


def test_invalid_cap():
    with pytest.raises(ComplexError):
        coset_enumeration(target_presentation(), 0)


def test_pi1_of_target_complex():
    pres = pi1_presentation(kp().complex)
    # single vertex: no tree edges, so both loops survive as generators
    assert len(pres.generators) == 2
    assert 1 <= len(pres.relators) <= 2
    assert coset_enumeration(pres) == 1


def test_pi1_of_circle_is_free():
    circle = TwoComplex.make(["v0"], [Edge("a", "v0", "v0")], [])
    pres = pi1_presentation(circle)
    assert len(pres.generators) == 1
    assert pres.relators == ()


def test_pi1_generator_count_matches_tree():
    c3 = build_C(3).complex
    pres = pi1_presentation(c3)
    assert len(pres.generators) == len(c3.edges) - (len(c3.vertices) - 1)
    assert len(pres.relators) <= len(c3.faces)
    assert coset_enumeration(pres) == 1


def test_large_cycle_pi1_presentation_scales():
    # validating a presentation checks every relator letter against its
    # generators, which must not cost a scan of the generators per letter
    cx = build_C(20001).complex
    started = time.perf_counter()
    pres = pi1_presentation(cx)
    elapsed = time.perf_counter() - started
    assert len(pres.generators) == len(cx.edges) - (len(cx.vertices) - 1)
    assert len(pres.relators) == len(cx.faces)
    assert elapsed < 10.0, f"pi1_presentation of C(20001) took {elapsed:.2f}s"


def test_pi1_trivial_for_families():
    for m in (build_C(5), build_C(7, "tilde"), build_D(4)):
        assert coset_enumeration(pi1_presentation(m.complex)) == 1


def test_pi1_requires_connected():
    two = TwoComplex.make(["v0", "v1"], [], [])
    with pytest.raises(ComplexError, match="connected"):
        pi1_presentation(two)


def test_spanning_tree_size():
    c5 = build_C(5).complex
    tree = c5.spanning_forest
    assert len(tree) == len(c5.vertices) - 1
    # a forest has one tree per component: here C(5) and a two-vertex arc
    apart = TwoComplex.make(
        c5.vertices + ("w0", "w1"), c5.edges + (Edge("x0", "w0", "w1"),), c5.faces
    )
    assert apart.spanning_forest == tree | {"x0"}
    assert not apart.connected


def test_cyclic_reduce():
    pairs = (("aA", ""), ("abBA", ""), ("Aba", "b"), ("abA", "b"), ("aba", "aba"))
    for text, reduced in pairs:
        assert cyclic_reduce(word(text)) == word(reduced)


def test_tietze_eliminates_a_generator_defined_by_a_relator():
    # S3 with a redundant generator c = ab; cBA is solved for b, which has
    # the fewest other occurrences, as b = Ac
    abc = ("a", "b", "c")
    pres = Presentation(
        abc, tuple(parse_word(text, abc) for text in ("aa", "bb", "cBA", "ccc"))
    )
    reduced = tietze_reduce(pres)
    assert reduced == Presentation(
        ("a", "c"), tuple(parse_word(text, abc) for text in ("aa", "AcAc", "ccc"))
    )
    assert coset_enumeration(reduced) == coset_enumeration(pres) == 6


def test_tietze_refuses_a_substitution_that_grows_the_relators():
    # a occurs once in abbb, but substituting a = BBB into aaab would add
    # 3 * (4 - 2) = 6 letters for the 4 removed
    pres = Presentation(("a", "b"), (word("abbb"), word("aaab")))
    assert tietze_reduce(pres) == pres


def test_tietze_empties_the_family_presentations():
    for i in (1, 3, 51, 101):
        assert tietze_reduce(pi1_presentation(build_C(i).complex)) == Presentation((), ())


@st.composite
def presentations(draw) -> Presentation:
    gens = ("a", "b", "c")[: draw(st.integers(1, 3))]
    letters = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    drawn = draw(st.lists(st.lists(letters, max_size=7), max_size=4))
    words = [free_reduce(tuple(w)) for w in drawn]
    return Presentation(gens, tuple(w for w in words if w))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(presentations())
def test_tietze_keeps_the_group_and_never_grows(pres):
    reduced = tietze_reduce(pres)
    assert set(reduced.generators) <= set(pres.generators)
    length = sum(len(cyclic_reduce(w)) for w in pres.relators)
    assert sum(map(len, reduced.relators)) <= length
    before, after = coset_enumeration(pres, 2000), coset_enumeration(reduced, 2000)
    if before is not None and after is not None:
        assert before == after
