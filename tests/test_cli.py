import json

import pytest

from foldcx.canonical import canonical_form
from foldcx.cli import main
from foldcx.jsonio import morphism_from_json, morphism_to_json
from foldcx.families import build_D, kp


@pytest.fixture()
def kp_file(tmp_path):
    path = tmp_path / "kp.json"
    path.write_text(morphism_to_json(kp()))
    return str(path)


@pytest.fixture()
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(morphism_to_json(build_D(1)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_and_round_trip(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    code, _ = run(capsys, "build", "a,b|b,baBAA", "-o", str(out_path))
    assert code == 0
    written = out_path.read_text()
    reread = morphism_from_json(written)
    assert canonical_form(reread) == canonical_form(kp())
    assert morphism_to_json(reread) == written


def test_family_and_classify(tmp_path, capsys):
    path = tmp_path / "c6.json"
    assert main(["family", "C:6", "-o", str(path)]) == 0
    code, out = run(capsys, "classify", str(path))
    assert code == 0
    assert out.strip() == "C:3"


def test_kappa_and_chi(kp_file, capsys):
    code, out = run(capsys, "kappa", kp_file)
    assert code == 0 and out.strip() == "1/2"
    code, out = run(capsys, "chi", kp_file)
    assert code == 0 and out.strip() == "1"


def test_check_immersion_pass(kp_file, capsys):
    code, out = run(capsys, "check-immersion", kp_file)
    assert code == 0 and "immersion" in out


def test_check_immersion_failure_exit_one(tmp_path, capsys):
    doc = json.loads(morphism_to_json(kp()))
    doc["vertices"].append("v1")
    doc["edges"].append({"id": "a2", "tail": "v0", "head": "v1", "label": "a"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check-immersion", str(path))
    assert code == 1
    assert "not an immersion" in out


def test_free_faces_listing(d1_file, capsys):
    code, out = run(capsys, "free-faces", d1_file)
    assert code == 0
    assert out.split() == ["a2", "b1"]


def test_collapse(d1_file, tmp_path, capsys):
    out_path = tmp_path / "collapsed.json"
    assert main(["collapse", d1_file, "--edge", "b1", "-o", str(out_path)]) == 0
    collapsed = morphism_from_json(out_path.read_text())
    assert len(collapsed.complex.faces) == 1


def test_fold_with_trace(tmp_path, capsys):
    # an unfolded two-disc input: both short faces collide after gluing
    from helpers import disjoint_union, quotient_vertices
    from foldcx.families import build_D

    noisy = quotient_vertices(
        disjoint_union([build_D(0), build_D(0)]), [("v0.0", "v0.1")]
    )
    src = tmp_path / "noisy.json"
    src.write_text(morphism_to_json(noisy))
    out_path = tmp_path / "folded.json"
    trace_path = tmp_path / "trace.jsonl"
    code = main(["fold", str(src), "-o", str(out_path), "--trace", str(trace_path)])
    assert code == 0
    folded = morphism_from_json(out_path.read_text())
    assert len(folded.complex.faces) == 1
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert all({"kind", "survivor", "absorbed"} <= set(l) for l in lines)


def test_couple_identify_commands(tmp_path, capsys):
    d0 = tmp_path / "d0.json"
    assert main(["family", "D:0", "-o", str(d0)]) == 0
    coupled = tmp_path / "coupled.json"
    assert main(
        ["couple", str(d0), "--type", "1", "--pos", "2", "--edge", "b0", "-o", str(coupled)]
    ) == 0
    code, out = run(capsys, "classify", str(coupled))
    assert out.strip() == "D:1"

    d3 = tmp_path / "d3.json"
    assert main(["family", "D:3", "-o", str(d3)]) == 0
    merged = tmp_path / "merged.json"
    assert main(
        ["identify-edges", str(d3), "--e1", "b3", "--e2", "b0", "-o", str(merged)]
    ) == 0
    code, out = run(capsys, "classify", str(merged))
    assert out.strip() == "C:3"

    c3 = tmp_path / "c3.json"
    assert main(["family", "C:3", "-o", str(c3)]) == 0
    pinched = tmp_path / "pinched.json"
    assert main(
        ["identify-vertices", str(c3), "--u", "v0", "--v", "v1", "-o", str(pinched)]
    ) == 0
    code, out = run(capsys, "classify", str(pinched))
    assert out.strip() == "C:1"


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["family", "C:6", "-o", str(a)])
    main(["family", "C:3", "-o", str(b)])
    code, out = run(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out)["vertices"]
    main(["family", "C:5", "-o", str(b)])
    code, out = run(capsys, "iso", str(a), str(b))
    assert code == 0 and out.strip() == "none"


def test_iso_validates_its_inputs(tmp_path, capsys):
    doc = json.loads(morphism_to_json(kp()))
    doc["faces"][0]["boundary"] = ["+a"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    message = "error: face f0 position 0 reads (a,+1), relator has (b,+1)\n"
    for argv in (["chi", str(bad)], ["iso", str(bad), str(bad)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message


def test_homology_and_certify(kp_file, capsys):
    code, out = run(capsys, "homology", kp_file)
    assert code == 0
    assert json.loads(out) == {
        "betti_0": 1,
        "betti_1": 0,
        "betti_2": 0,
        "torsion_1": [],
    }
    code, out = run(capsys, "certify", kp_file)
    assert code == 0
    assert json.loads(out)["kind"] == "simply-connected-acyclic"


def test_enumerate_command(capsys):
    code, out = run(capsys, "enumerate", "--max-vertices", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1 and doc[0]["classification"] == "C:1"


def test_verify_lemma_command(capsys):
    code, out = run(capsys, "verify-lemma", "2.2", "--max-i", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    code, _ = run(capsys, "verify-lemma", "coupling", "--max-i", "2")
    assert code == 0


@pytest.mark.parametrize("which", ["2.2", "2.4", "2.5"])
def test_verify_lemma_rejects_a_negative_max_i(capsys, which):
    assert main(["verify-lemma", which, "--max-i", "-3"]) == 2
    assert "max_i must be at least 0" in capsys.readouterr().err


def test_verify_theorem_command(capsys):
    code, out = run(capsys, "verify-theorem", "--max-vertices", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-lemma", "2.2", "--max-i", "5"],
        ["verify-theorem", "--max-vertices", "3"],
    ],
    ids=["verify-lemma", "verify-theorem"],
)
def test_verify_output_is_deterministic_unless_timed(capsys, argv):
    for flags in (["--json"], []):
        first = run(capsys, *argv, *flags)
        assert first == run(capsys, *argv, *flags)
        assert "wall" not in first[1]
    code, out = run(capsys, *argv, "--json", "--timing")
    assert code == 0
    assert json.loads(out)["wall_clock_s"] >= 0
    assert "wall clock:" in run(capsys, *argv, "--timing")[1]


def test_export_dot(kp_file, capsys):
    code, out = run(capsys, "export-dot", kp_file)
    assert code == 0 and out.startswith("digraph")


def test_exit_two_on_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["chi", str(bad)]) == 2
    assert main(["build", "a|aa"]) == 2
    assert main(["build", "a,b|b,,baBAA"]) == 2  # an empty relator
    assert main(["chi", str(tmp_path / "missing.json")]) == 2
    assert main(["family", "X:1"]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text('{"presentation": "a,b|b,baBAA"}')
    assert main(["chi", str(incomplete)]) == 2
    badside = tmp_path / "badside.json"
    badside.write_text(
        morphism_to_json(kp()).replace('"+b"', '"b"')
    )
    assert main(["chi", str(badside)]) == 2


MISSING = object()


def kp_document(path, value):
    """The kp document as JSON text with value at path: the whole document
    for an empty path, and the field deleted when value is MISSING."""
    doc = json.loads(morphism_to_json(kp()))
    if not path:
        return json.dumps(value)
    *inner, last = path
    target = doc
    for key in inner:
        target = target[key]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        ((), []),
        (("presentation",), 5),
        (("vertices",), 5),
        (("vertices",), [["v0"]]),
        (("edges", 0), 5),
        (("edges", 0, "id"), 5),
        (("edges", 0, "label"), ["b"]),
        (("faces", 0, "boundary"), 5),
        (("faces", 0, "type"), None),
        (("faces", 0, "type"), 0.7),
        (("faces", 0, "type"), "0"),
        (("faces", 1, "type"), True),
        (("presentation",), MISSING),
        (("vertices",), MISSING),
        (("edges", 0, "label"), MISSING),
        (("faces", 0, "type"), MISSING),
    ],
    ids=[
        "list", "presentation", "vertices", "vertex-list", "edge", "edge-id",
        "edge-label", "boundary", "type-null", "type-float", "type-string", "type-bool",
        "no-presentation", "no-vertices", "no-edge-label", "no-face-type",
    ],
)
def test_exit_two_on_malformed_shape(tmp_path, capsys, path, value):
    # each value replaces the one at path in the kp document; a face type
    # that int() would coerce to the face's own type is still rejected
    bad = tmp_path / "bad.json"
    bad.write_text(kp_document(path, value))
    assert main(["chi", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if value is MISSING:
        # a missing field names itself and the cell that lacks it
        cell = {(): "the document", ("edges", 0): "edge a", ("faces", 0): "face f0"}
        assert err == f"error: malformed document: {cell[path[:-1]]} has no {path[-1]}\n"


MALFORMED_DOCUMENTS = {
    "no-presentation": kp_document(("presentation",), MISSING),
    "no-vertices": kp_document(("vertices",), MISSING),
    "no-edge-label": kp_document(("edges", 0, "label"), MISSING),
    "no-face-type": kp_document(("faces", 0, "type"), MISSING),
    "nested-too-deeply": "[" * 100_000 + "]" * 100_000,
}

FILE_COMMANDS = [
    ["chi", "FILE"],
    ["kappa", "FILE"],
    ["check-immersion", "FILE"],
    ["free-faces", "FILE"],
    ["classify", "FILE"],
    ["homology", "FILE"],
    ["certify", "FILE"],
    ["export-dot", "FILE"],
    ["fold", "FILE"],
    ["collapse", "FILE", "--edge", "b"],
    ["couple", "FILE", "--type", "1", "--pos", "2", "--edge", "b"],
    ["identify-vertices", "FILE", "--u", "v0", "--v", "v0"],
    ["identify-edges", "FILE", "--e1", "a", "--e2", "a"],
    ["iso", "FILE", "FILE"],
]


@pytest.mark.parametrize("document", sorted(MALFORMED_DOCUMENTS))
@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
def test_every_file_command_exits_two_on_a_malformed_document(
    tmp_path, capsys, argv, document
):
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED_DOCUMENTS[document])
    assert main([str(bad) if word == "FILE" else word for word in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: malformed document:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "\u00df|\u1e9e"], "generator must be one lowercase letter"),
        (["family", "D:\u00b2"], "must look like 'D:3'"),
        (["family", "D:\u0663"], "must look like 'D:3'"),
        (["family", "C:\uff13"], "must look like 'D:3'"),
    ],
    ids=["sharp-s", "superscript", "arabic-indic", "fullwidth"],
)
def test_exit_two_on_a_non_ascii_argument(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


def test_exit_two_on_unknown_edge(d1_file):
    assert main(["collapse", d1_file, "--edge", "zz"]) == 2


def test_exit_two_on_duplicate_vertex(tmp_path):
    doc = json.loads(morphism_to_json(kp()))
    doc["vertices"] *= 2
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(doc))
    assert main(["chi", str(twice)]) == 2


def test_exit_two_on_budget(capsys):
    assert main(["verify-theorem", "--max-vertices", "3", "--max-nodes", "3"]) == 2


def test_budget_overflow_reports_the_count_reached(capsys):
    # the pairs on 7 vertices are charged at once, so the count reached,
    # 935,811 nodes through 6 vertices plus 14,401,420 pairs, is reported:
    # a lower bound on the budget needed, not the budget plus one
    assert main(["verify-theorem", "--max-vertices", "7"]) == 2
    captured = capsys.readouterr()
    message = "error: search budget exhausted (15337231 nodes > 5000000)\n"
    assert (captured.out, captured.err) == ("", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{d1}", "--max-cosets", "0"],
        ["certify", "{kp}", "--max-cosets", "-3"],
        ["verify-theorem", "--max-vertices", "1", "--max-cosets", "0"],
    ],
    ids=["certify-collapsible", "certify-coset-route", "verify-theorem"],
)
def test_exit_two_on_coset_cap_below_one(d1_file, kp_file, capsys, argv):
    # the cap is checked before any work, whether or not the input would
    # reach coset enumeration (D(1) collapses, KP does not)
    argv = [arg.format(d1=d1_file, kp=kp_file) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: max_cosets must be at least 1\n"


def test_max_nodes_applies_to_enumerate(capsys):
    assert main(["enumerate", "--max-vertices", "2", "--max-nodes", "2"]) == 2
    assert main(["enumerate", "--max-vertices", "2"]) == 0


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", ["enumerate", "verify-theorem"])
def test_exit_two_on_node_budget_below_one(capsys, command, budget):
    # rejected on entry, not reported as a budget the search exhausted
    assert main([command, "--max-vertices", "3", "--max-nodes", budget]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: max_nodes must be at least 1\n")


@pytest.mark.parametrize("error", [RuntimeError, RecursionError])
def test_exit_two_on_internal_error(kp_file, capsys, monkeypatch, error):
    def failing(cx):
        raise error("Euler identity violated")

    monkeypatch.setattr("foldcx.cli.homology", failing)
    assert main(["homology", kp_file]) == 2
    err = capsys.readouterr().err
    assert err == "internal error: Euler identity violated\n"
