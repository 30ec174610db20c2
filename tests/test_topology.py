import functools
import hashlib
import json
import random
import re
import time

import pytest

from foldcx.complexes import (
    ComplexError,
    Edge,
    Face,
    TwoComplex,
    presentation_complex,
)
from foldcx.enumeration import EnumerationFilter, enumerate_immersions
from foldcx.families import build_C, build_D, kp
from foldcx.homology import homology
from foldcx.presentations import parse_presentation
from foldcx.topology import (
    certify_contractible,
    collapsibility_search,
    replay_collapse,
)
from helpers import four_vertex_classes, random_prefold
from foldcx.folding import fold


def test_disc_collapses():
    steps = collapsibility_search(build_D(0).complex)
    assert steps is not None
    assert steps[0] == ("edge-face", "b0", "f0")
    final = replay_collapse(build_D(0).complex, steps)
    assert len(final.vertices) == 1 and not final.edges and not final.faces


@pytest.mark.parametrize("i", [1, 2, 3, 5])
@pytest.mark.parametrize("variant", ["standard", "tilde"])
def test_every_d_is_collapsible(i, variant):
    cx = build_D(i, variant).complex
    steps = collapsibility_search(cx)
    assert steps is not None
    final = replay_collapse(cx, steps)
    assert len(final.vertices) == 1 and not final.edges and not final.faces


def test_no_free_faces_means_no_collapse():
    assert collapsibility_search(kp().complex) is None
    assert collapsibility_search(build_C(3).complex) is None


def test_replay_rejects_illegal_steps():
    path = TwoComplex.make(
        ["v0", "v1", "v2"],
        [Edge("a0", "v0", "v1"), Edge("b1", "v1", "v2")],
        [],
    )
    illegal = [
        (kp().complex, [("edge-face", "a", "f1")], "replay: edge a is not free"),
        (build_D(0).complex, [("edge-face", "b0", "missing")], "replay: unknown face missing"),
        (build_D(1).complex, [("edge-face", "b1", "f0")], "replay: face f0 does not use edge b1"),
        (build_D(0).complex, [("vertex-edge", "v0", "b0")], "replay: edge b0 still bounds a face"),
        (path, [("vertex-edge", "v1", "a0")], "replay: vertex v1 has degree 2"),
        (path, [("vertex-edge", "v7", "a0")], "replay: vertex v7 has degree 0"),
        (path, [("face", "v0", "a0")], "replay: unknown step kind 'face'"),
        # an unknown or non-incident edge would leave the vertex's own edge dangling
        (path, [("vertex-edge", "v0", "zz")], "edge a0 references missing vertex"),
        (path, [("vertex-edge", "v0", "b1")], "edge a0 references missing vertex"),
        # a step after a legal one sees the live complex
        (
            build_D(1).complex,
            [("edge-face", "b1", "f1"), ("edge-face", "a2", "f1")],
            "replay: edge a2 is not free",
        ),
    ]
    for cx, steps, message in illegal:
        with pytest.raises(ComplexError, match=re.escape(message)):
            replay_collapse(cx, steps)


def test_certify_target_complex():
    cert = certify_contractible(kp().complex)
    assert cert.kind == "simply-connected-acyclic"
    assert cert.contractible
    assert cert.group_order == 1


def test_certify_families():
    for i in (1, 3, 5):
        for variant in ("standard", "tilde"):
            cert = certify_contractible(build_C(i, variant).complex)
            assert cert.contractible
    for i in (0, 2, 4):
        cert = certify_contractible(build_D(i).complex)
        assert cert.kind == "collapsible"
        final = replay_collapse(build_D(i).complex, list(cert.collapse_sequence))
        assert len(final.vertices) == 1


def test_certify_circle_not_contractible():
    circle = presentation_complex(parse_presentation("a|")).complex
    cert = certify_contractible(circle)
    assert cert.kind == "not-contractible"
    assert not cert.contractible


def test_certify_torus_not_contractible():
    torus = presentation_complex(parse_presentation("a,b|abAB")).complex
    assert certify_contractible(torus).kind == "not-contractible"


def test_certify_projective_plane_not_contractible():
    rp2 = TwoComplex.make(
        ["v0"], [Edge("e0", "v0", "v0")], [Face("f0", (("e0", 1), ("e0", 1)))]
    )
    assert certify_contractible(rp2).kind == "not-contractible"


def test_certify_requires_connected():
    two = TwoComplex.make(["v0", "v1"], [], [])
    with pytest.raises(ComplexError, match="connected"):
        certify_contractible(two)


def test_certificate_never_contradicts_homology():
    # fuzz: certificates must never claim contractibility when homology is
    # not point-like
    rng = random.Random(17)
    for _ in range(30):
        folded, _ = fold(random_prefold(rng))
        cx = folded.complex
        if not cx.connected:
            continue
        cert = certify_contractible(cx)
        if cert.contractible:
            assert homology(cx).is_point_like()


def test_certificate_json_replayable():
    cert = certify_contractible(build_D(2).complex)
    doc = json.loads(cert.to_json())
    assert doc["kind"] == "collapsible"
    steps = [tuple(step) for step in doc["collapse_sequence"]]
    final = replay_collapse(build_D(2).complex, steps)
    assert len(final.vertices) == 1


def test_tree_collapses_to_point():
    tree = TwoComplex.make(
        ["v0", "v1", "v2"],
        [Edge("a0", "v0", "v1"), Edge("b1", "v1", "v2")],
        [],
    )
    steps = collapsibility_search(tree)
    assert steps is not None and len(steps) == 2
    # v0 is the first leaf pruned, so v2 survives
    assert replay_collapse(tree, steps).vertices == ("v2",)


def test_cycle_does_not_collapse():
    cycle = TwoComplex.make(
        ["v0", "v1"],
        [Edge("a0", "v0", "v1"), Edge("a1", "v1", "v0")],
        [],
    )
    assert collapsibility_search(cycle) is None


def test_long_disc_collapses_without_recursion():
    cx = build_D(1100).complex
    steps = collapsibility_search(cx)
    assert steps is not None and len(steps) == 3301
    kinds = [kind for kind, _, _ in steps]
    assert kinds.count("edge-face") == len(cx.faces)
    assert kinds.count("vertex-edge") == len(cx.vertices) - 1


def test_large_disc_certifies_collapsible():
    cx = build_D(10000).complex
    started = time.perf_counter()
    cert = certify_contractible(cx)
    elapsed = time.perf_counter() - started
    assert cert.kind == "collapsible"
    assert len(cert.collapse_sequence) == 30001
    assert elapsed < 10.0, f"certifying D(10000) took {elapsed:.2f}s"


def test_large_cycle_certifies_through_its_fundamental_group():
    # C(1001) has no free face; its pi1 presentation has 1002 generators,
    # which coset enumeration only handles after the Tietze pass
    cx = build_C(1001).complex
    started = time.perf_counter()
    cert = certify_contractible(cx)
    elapsed = time.perf_counter() - started
    assert cert.kind == "simply-connected-acyclic"
    assert cert.group_order == 1
    assert elapsed < 10.0, f"certifying C(1001) took {elapsed:.2f}s"


def test_certificates_are_pinned():
    # sha256 of the concatenated certificate JSON, the same bytes as before
    # the reduced homology, live-count replay and Tietze pass
    cxs = [kp().complex]
    for variant in ("standard", "tilde"):
        cxs += [build_D(i, variant).complex for i in range(41)]
        cxs += [build_C(i, variant).complex for i in range(1, 40)]
    cxs += [m.complex for m in four_vertex_classes()]
    digest = hashlib.sha256()
    for cx in cxs:
        digest.update(certify_contractible(cx).to_json().encode())
    assert len(cxs) == 300
    assert digest.hexdigest() == (
        "8446864ede3b03df92ab8a0254d067e62bc5b02beb4f3feafc97b367cc78313b"
    )


def _collapsible_by_exhaustion(cx: TwoComplex) -> bool:
    """Reference: try every order of free-face collapses, then ask whether
    the graph left is a spanning tree."""
    face_edges = {f.id: [eid for eid, _ in f.boundary] for f in cx.faces}

    def is_spanning_tree(edges) -> bool:
        if len(edges) != len(cx.vertices) - 1:
            return False
        root = {v: v for v in cx.vertices}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for eid in edges:
            e = cx.edge_by_id[eid]
            a, b = find(e.tail), find(e.head)
            if a == b:
                return False
            root[a] = b
        return True

    @functools.cache
    def reaches_point(edges: frozenset, faces: frozenset) -> bool:
        if not faces:
            return is_spanning_tree(edges)
        uses = [eid for fid in faces for eid in face_edges[fid]]
        for eid in edges:
            if uses.count(eid) == 1:
                (fid,) = [f for f in faces if eid in face_edges[f]]
                if reaches_point(edges - {eid}, faces - {fid}):
                    return True
        return False

    return reaches_point(frozenset(cx.edge_by_id), frozenset(face_edges))


def _greedy_and_exhaustive_verdicts(cx: TwoComplex) -> tuple[bool, bool]:
    steps = collapsibility_search(cx)
    if steps is not None:
        final = replay_collapse(cx, steps)
        assert len(final.vertices) == 1 and not final.edges and not final.faces
    return steps is not None, _collapsible_by_exhaustion(cx)


def test_greedy_collapse_matches_exhaustion_on_enumeration():
    classes = enumerate_immersions(EnumerationFilter(4, True, False))
    assert len(classes) == 139
    verdicts = [_greedy_and_exhaustive_verdicts(m.complex) for m in classes]
    assert all(greedy == reference for greedy, reference in verdicts)
    assert sum(greedy for greedy, _ in verdicts) == 15


def test_greedy_collapse_matches_exhaustion_on_random_folds():
    rng = random.Random(23)
    verdicts = [
        _greedy_and_exhaustive_verdicts(fold(random_prefold(rng))[0].complex)
        for _ in range(100)
    ]
    assert all(greedy == reference for greedy, reference in verdicts)
    assert any(greedy for greedy, _ in verdicts)
