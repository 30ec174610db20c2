"""Acceptance criteria, one test per criterion, each timed against its
stated budget.  Criterion 10 checks the homology Euler identity over every
complex the earlier criteria generated (they register what they build),
so this module is meant to run in file order, which is pytest's default.
"""

import random
import resource
import time

from foldcx.canonical import canonical_form, isomorphic
from foldcx.complexes import euler_characteristic, free_faces
from foldcx.enumeration import EnumerationFilter, enumerate_immersions
from foldcx.families import build_C, build_D, classify, kp, odd_part
from foldcx.folding import couple, fold, identify_edges, identify_vertices
from foldcx.groups import coset_enumeration
from foldcx.homology import homology
from foldcx.topology import certify_contractible
from foldcx.verify import closure_search, verify_main_theorem
from helpers import random_prefold, rescan_fold

GENERATED = []  # complexes produced while running criteria 2-8


def register(morphism):
    GENERATED.append(morphism.complex)


def report(number, detail, elapsed, budget):
    print(f"PASS criterion {number}: {detail} ({elapsed:.3f}s, budget {budget}s)")


def test_criterion_01_average_curvature():
    from foldcx.complexes import average_curvature

    k = kp()
    started = time.perf_counter()
    chi = euler_characteristic(k.complex)
    kappa = average_curvature(k.complex)
    elapsed = time.perf_counter() - started
    assert chi == 1
    assert len(k.complex.faces) == 2
    assert kappa.numerator == 1 and kappa.denominator == 2
    assert elapsed < 0.001
    report(1, "kappa = 1/2 exactly, chi = 1, area = 2", elapsed, 0.001)


def test_criterion_02_family_skeletons():
    started = time.perf_counter()
    for i in range(100):
        d = build_D(i)
        register(d)
        assert len(d.complex.vertices) == 2 * i + 1
        assert len(d.complex.edges) == 3 * i + 1
        assert len(d.complex.faces) == i + 1
        assert euler_characteristic(d.complex) == 1
        assert f"b{i}" in free_faces(d.complex)
    for i in range(1, 100, 2):
        c = build_C(i)
        register(c)
        assert len(c.complex.vertices) == i
        assert len(c.complex.edges) == 2 * i
        assert len(c.complex.faces) == i + 1
        assert euler_characteristic(c.complex) == 1
        assert free_faces(c.complex) == set()
        long_sides = {e.id: 0 for e in c.complex.edges}
        for face in c.complex.faces:
            if c.face_types[face.id] == 1:
                for eid, _ in face.boundary:
                    long_sides[eid] += 1
        for e in c.complex.edges:
            assert long_sides[e.id] == (3 if c.edge_labels[e.id] == "a" else 2)
        degree = {v: 0 for v in c.complex.vertices}
        for e in c.complex.edges:
            degree[e.tail] += 1
            degree[e.head] += 1
        assert set(degree.values()) == {4}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, "family skeletons conform for every index up to 99", elapsed, 1.0)


def test_criterion_03_even_collapse():
    started = time.perf_counter()
    assert isomorphic(build_C(1), kp()) is not None
    for i in range(1, 61):
        a, b = build_C(i), build_C(odd_part(i))
        register(a)
        assert isomorphic(a, b) is not None
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(3, "C(1) matches the target and C(i) matches C(odd(i)) up to 60", elapsed, 5.0)


def test_criterion_04_vertex_identification():
    started = time.perf_counter()
    from itertools import combinations

    for i in range(3, 16, 2):
        c = build_C(i)
        for u, v in combinations(c.complex.vertices, 2):
            result = identify_vertices(c, u, v)
            register(result)
            tag = classify(result)
            assert tag is not None and tag.family == "C" and tag.index < i, (i, u, v, tag)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(4, "vertex identification lands strictly lower in the C family", elapsed, 120.0)


def test_criterion_05_edge_identification():
    started = time.perf_counter()
    for i in range(1, 16):
        d = build_D(i)
        for j in range(i):
            result = identify_edges(d, f"b{i}", f"b{j}")
            register(result)
            tag = classify(result)
            assert tag is not None and tag.family == "C", (i, j, tag)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(5, "edge identification always lands in the C family", elapsed, 120.0)


def test_criterion_06_coupling():
    started = time.perf_counter()
    for i in range(16):
        d = build_D(i)
        expected = {("D", i), ("D", i + 1)}
        if i >= 1:
            expected.add(("C", odd_part(i)))
        for t, p in ((0, 0), (1, 0), (1, 2)):
            result = couple(d, t, p, f"b{i}")
            register(result)
            tag = classify(result)
            assert tag is not None and (tag.family, tag.index) in expected, (i, t, p, tag)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(6, "coupling outcomes stay within D(i), D(i+1), C(i)", elapsed, 120.0)


def test_criterion_07_main_theorem_desk_scale():
    started = time.perf_counter()
    report_obj = verify_main_theorem(5)
    assert report_obj.passed
    both = [r for r in report_obj.rows if r.description.startswith("both-types")]
    assert {r.classification for r in both} == {"C:1", "C:3", "C:5"}
    assert all(r.chi == 1 for r in both)
    assert all("certificate" in r.detail for r in both)
    long_rows = [r for r in report_obj.rows if r.description.startswith("long-only")]
    assert long_rows and all(
        r.chi <= 0 or "certificate" in r.detail for r in long_rows
    )
    for m in enumerate_immersions(EnumerationFilter(5)):
        register(m)
    for m in enumerate_immersions(EnumerationFilter(5, required_types=frozenset({1}))):
        register(m)
    elapsed = time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert elapsed < 600.0
    assert peak_kb < 2 * 1024 * 1024
    report(
        7,
        f"desk-scale dichotomy holds (peak memory {peak_kb // 1024} MB)",
        elapsed,
        600.0,
    )


def test_criterion_08_oracle_cross_check():
    started = time.perf_counter()
    closure = closure_search(build_D(1), 6)
    closure_forms = sorted(canonical_form(m) for m, _ in closure.results)
    enumerated = enumerate_immersions(EnumerationFilter(5))
    enum_forms = sorted(canonical_form(m) for m in enumerated)
    assert closure_forms == enum_forms
    for m, _ in closure.results:
        register(m)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        8,
        f"move closure and exhaustive enumeration agree on {len(enum_forms)} classes "
        f"(search depth {closure.max_depth})",
        elapsed,
        60.0,
    )


def test_criterion_09_fold_confluence():
    started = time.perf_counter()
    rig = random.Random(2024)
    for k in range(200):
        noisy = random_prefold(rig)
        reference = canonical_form(fold(noisy)[0])
        for order in range(20):
            shuffled, _ = rescan_fold(noisy, random.Random(1000 * k + order))
            assert canonical_form(shuffled) == reference
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(9, "fold quotients agree across 20 random orders on 200 inputs", elapsed, 60.0)


def test_criterion_10_topology_soundness():
    started = time.perf_counter()
    assert homology(kp().complex).is_point_like()
    from foldcx.families import target_presentation

    assert coset_enumeration(target_presentation()) == 1
    corpus = list(GENERATED)
    if not corpus:  # run in isolation: fall back to the family corpus
        corpus = [build_D(i).complex for i in range(100)]
        corpus += [build_C(i).complex for i in range(1, 100, 2)]
    for cx in corpus:
        profile = homology(cx)
        assert (
            profile.betti_0 - profile.betti_1 + profile.betti_2
            == euler_characteristic(cx)
        )
    for i in range(1, 10, 2):
        for variant in ("standard", "tilde"):
            cert = certify_contractible(build_C(i, variant).complex)
            assert cert.contractible, (i, variant, cert.kind)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        10,
        f"homology, coset enumeration and certificates consistent on "
        f"{len(corpus)} generated complexes",
        elapsed,
        60.0,
    )
